package sim

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/cache"
)

// maskPair is one mask vector of the two-CLOS runner: the HP mask of
// CLOS 0 and the BE mask of CLOS 1.
type maskPair struct{ hp, be uint64 }

// memoPairs returns 40 distinct mask vectors, more than the memo holds.
// Pair i has HP ways [1+i%10, 11+i%10) and BE ways [0, 1+i/10), so
// pairs 0 and 1 differ only in the HP mask, pairs 0 and 10 only in the
// BE mask, and many of them overlap in shared ways.
func memoPairs() []maskPair {
	out := make([]maskPair, 40)
	for i := range out {
		out[i] = maskPair{cache.ContiguousMask(1+i%10, 10), cache.ContiguousMask(0, 1+i/10)}
	}
	return out
}

// TestMemoMatchesReference holds the memoised runner to the reference
// solver bit for bit after every step of a script that revisits mask
// vectors the way DICER does. The first 80 steps walk all 40 pairs, each
// new one followed by a revisit of its predecessor, so the memo fills
// and starts over inside one phase stretch. The rest cycles through
// three pairs that differ from each other in one CLOS's mask only, so
// every phase transition, CLOS move, detach and attach, park and
// unpark, and cap change is followed by revisits. Every third step also
// snapshots between the mask writes and the Step, where a memo hit must
// not publish its link point early.
func TestMemoMatchesReference(t *testing.T) {
	opt, ref := tenCoreRunner(t), tenCoreRunner(t)
	ref.UseReferenceSolver(true)
	both := func(step int, f func(r *Runner) error) {
		t.Helper()
		for _, r := range []*Runner{opt, ref} {
			if err := f(r); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	pairs := memoPairs()
	cycle := []maskPair{pairs[0], pairs[1], pairs[10]}
	structural := map[int]func(r *Runner) error{
		100: func(r *Runner) error { return r.SetClos(5, 0) },
		110: func(r *Runner) error { return r.SetClos(5, 1) },
		130: func(r *Runner) error { return r.Detach(9) },
		140: func(r *Runner) error { return r.Attach(9, 1, app.MustByName("lbm1")) },
		160: func(r *Runner) error { return r.SetCoreParked(8, true) },
		170: func(r *Runner) error { return r.SetCoreParked(8, false) },
		190: func(r *Runner) error { return r.SetBWCap(1, 20) },
		220: func(r *Runner) error { return r.SetBWCap(1, 0) },
	}

	var hits, phaseChanges int
	full := false
	lastPhase := opt.Proc(1).PhaseIndex()
	for step := 0; step < 360; step++ {
		if f := structural[step]; f != nil {
			both(step, f)
		}
		p := cycle[step%len(cycle)]
		if step < 80 {
			p = pairs[step/2]
			if step%2 == 1 && step > 1 {
				p = pairs[step/2-1]
			}
		}
		both(step, func(r *Runner) error { return r.SetMask(0, p.hp) })
		both(step, func(r *Runner) error { return r.SetMask(1, p.be) })
		if step%3 == 0 {
			compareSnapshots(t, step, opt, ref)
			if opt.Inflation() != ref.Inflation() || opt.Utilisation() != ref.Utilisation() {
				t.Fatalf("step %d: snapshot published a link point: inflation %v vs %v, util %v vs %v",
					step, opt.Inflation(), ref.Inflation(), opt.Utilisation(), ref.Utilisation())
			}
		}
		opt.Step(0.25)
		ref.Step(0.25)
		if opt.memo.hit >= 0 {
			hits++
		}
		if opt.memo.n == memoCap {
			full = true
		}
		if ph := opt.Proc(1).PhaseIndex(); ph != lastPhase {
			phaseChanges++
			lastPhase = ph
		}
		compareRunners(t, step, opt, ref)
	}
	// The script must exercise what it is named for.
	if hits < 100 || !full || phaseChanges < 2 {
		t.Fatalf("script lost its coverage: %d memo hits, memo full %v, %d BE phase changes", hits, full, phaseChanges)
	}
}

// compareRunners fails unless both runners report the same link point,
// the same population, identical per-core counters and phase positions,
// and identical snapshots.
func compareRunners(t *testing.T, step int, opt, ref *Runner) {
	t.Helper()
	if opt.Inflation() != ref.Inflation() || opt.Utilisation() != ref.Utilisation() {
		t.Fatalf("step %d: operating point diverged: inflation %v vs %v, util %v vs %v",
			step, opt.Inflation(), ref.Inflation(), opt.Utilisation(), ref.Utilisation())
	}
	for core := 0; core < opt.Machine().Cores; core++ {
		po, pr := opt.Proc(core), ref.Proc(core)
		if (po == nil) != (pr == nil) {
			t.Fatalf("step %d core %d: population diverged", step, core)
		}
		if po != nil && (po.Instructions != pr.Instructions || po.Cycles != pr.Cycles || po.MemBytes != pr.MemBytes ||
			po.Completions != pr.Completions || po.PhaseIndex() != pr.PhaseIndex() || po.PhaseProgress() != pr.PhaseProgress()) {
			t.Fatalf("step %d core %d: counters diverged: instr %v vs %v, cycles %v vs %v, bytes %v vs %v, phase %d+%v vs %d+%v",
				step, core, po.Instructions, pr.Instructions, po.Cycles, pr.Cycles, po.MemBytes, pr.MemBytes,
				po.PhaseIndex(), po.PhaseProgress(), pr.PhaseIndex(), pr.PhaseProgress())
		}
	}
	compareSnapshots(t, step, opt, ref)
}

// compareSnapshots fails unless both runners report identical per-CLOS
// traffic and occupancy.
func compareSnapshots(t *testing.T, step int, a, b *Runner) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	for c := range sa.Clos {
		if sa.Clos[c] != sb.Clos[c] {
			t.Fatalf("step %d clos %d: snapshot diverged: %+v vs %+v", step, c, sa.Clos[c], sb.Clos[c])
		}
	}
}
