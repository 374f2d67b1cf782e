package sim

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/cache"
)

// tenCoreRunner builds the standard HP + 9 BE co-location under a
// CT-style split, the shape every experiment drives.
func tenCoreRunner(tb testing.TB) *Runner {
	tb.Helper()
	r, err := New(testMachine(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := r.Attach(i, 1, app.MustByName("gcc_base1")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.SetMask(0, cache.ContiguousMask(1, 19)); err != nil {
		tb.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 1)); err != nil {
		tb.Fatal(err)
	}
	return r
}

// distinctRunner builds the CT-style split of tenCoreRunner with ten
// different catalog profiles, a fleet node's shape: no two processes
// are in lockstep, so every one is solved and advanced on its own.
func distinctRunner(tb testing.TB) *Runner {
	tb.Helper()
	r, err := New(testMachine(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	bes := []string{"gcc_base1", "milc1", "lbm1", "mcf1", "sphinx1", "Xalan1", "soplex1", "bzip21", "namd1"}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		tb.Fatal(err)
	}
	for i, name := range bes {
		if err := r.Attach(i+1, 1, app.MustByName(name)); err != nil {
			tb.Fatal(err)
		}
	}
	setPair(tb, r, maskPair{cache.ContiguousMask(1, 19), cache.ContiguousMask(0, 1)})
	if n := followers(r); n != 0 {
		tb.Fatalf("%d of the ten distinct profiles are in lockstep", n)
	}
	return r
}

// setPair installs a mask vector on the two-CLOS runner.
func setPair(tb testing.TB, r *Runner, p maskPair) {
	if err := r.SetMask(0, p.hp); err != nil {
		tb.Fatal(err)
	}
	if err := r.SetMask(1, p.be); err != nil {
		tb.Fatal(err)
	}
}

// warmMemo walks the mask vectors in a cycle until the memo has been
// full once, so its storage has reached the capacity it keeps. It
// returns the number of steps taken: a walk that goes on from there
// never finds its masks memoised.
func warmMemo(tb testing.TB, r *Runner, pairs []maskPair) int {
	i := 0
	for ; r.memo.n < memoCap; i++ {
		if i == 10*len(pairs) {
			tb.Fatalf("memo never filled in %d steps", i)
		}
		setPair(tb, r, pairs[i%len(pairs)])
		r.Step(0.25)
	}
	return i
}

// BenchmarkStepUncached forces a full share + bandwidth re-solve every
// step, the worst case a policy can inflict once per period. It cycles
// through more mask vectors than the memo holds, so no step finds its
// masks memoised.
func BenchmarkStepUncached(b *testing.B) {
	benchUncached(b, tenCoreRunner(b))
}

// BenchmarkStepUncachedDistinct is BenchmarkStepUncached's mask walk on
// ten different profiles, a fleet node's shape: every process is a
// lockstep set of its own, so no shared region water-fills fewer runs
// than members.
func BenchmarkStepUncachedDistinct(b *testing.B) {
	benchUncached(b, distinctRunner(b))
}

// benchUncached times a walk over more mask vectors than the memo holds,
// so every step re-solves both fixed points.
func benchUncached(b *testing.B, r *Runner) {
	pairs := memoPairs()
	next := warmMemo(b, r, pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setPair(b, r, pairs[(next+i)%len(pairs)])
		r.Step(0.25)
	}
}

// BenchmarkStepMemoHit measures a mask change to a vector solved earlier
// in the same phase stretch: DICER's Reset and Sampling revisits. Both
// solves come from the memo.
func BenchmarkStepMemoHit(b *testing.B) {
	r := tenCoreRunner(b)
	pairs := memoPairs()[:2]
	for _, p := range pairs {
		setPair(b, r, p)
		r.Step(0.25)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setPair(b, r, pairs[i%2])
		r.Step(0.25)
	}
}

// BenchmarkStepSteadyState measures the cached path: no mask changes, so
// Steps between phase transitions skip both solves entirely.
func BenchmarkStepSteadyState(b *testing.B) {
	r := tenCoreRunner(b)
	r.Step(0.25) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(0.25)
	}
}

// BenchmarkStepDistinct is BenchmarkStepSteadyState on ten different
// profiles, the path lockstep sets cannot shorten.
func BenchmarkStepDistinct(b *testing.B) {
	r := distinctRunner(b)
	r.Step(0.25) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(0.25)
	}
}

// TestStepZeroAllocsSteadyState is the allocation guard the ISSUE 2
// acceptance criteria pin: steady-state Step must be 0 allocs/op. The
// window is long enough to cross phase transitions, so the re-solve path
// is covered too — all its working storage is Runner-owned scratch.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	r := tenCoreRunner(t)
	r.Step(0.25)
	allocs := testing.AllocsPerRun(200, func() {
		r.Step(0.25)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepZeroAllocsDistinct extends the steady-state guard to ten
// different profiles, where no process copies another.
func TestStepZeroAllocsDistinct(t *testing.T) {
	r := distinctRunner(t)
	r.Step(0.25)
	allocs := testing.AllocsPerRun(200, func() {
		r.Step(0.25)
	})
	if allocs != 0 {
		t.Fatalf("distinct-profile Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepZeroAllocsAfterMask extends the guard to the uncached path: a
// mask change to a vector the memo has not seen forces the full share +
// bandwidth re-solve, which must also run out of scratch buffers once the
// memo's storage is warm.
func TestStepZeroAllocsAfterMask(t *testing.T) {
	r := tenCoreRunner(t)
	pairs := memoPairs()
	i, hits := warmMemo(t, r, pairs), 0
	allocs := testing.AllocsPerRun(100, func() {
		setPair(t, r, pairs[i%len(pairs)])
		i++
		r.Step(0.25)
		if r.memo.hit >= 0 {
			hits++
		}
	})
	if hits != 0 {
		t.Fatalf("%d of the walk's steps hit the memo; the guard must re-solve every step", hits)
	}
	if allocs != 0 {
		t.Fatalf("uncached Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepZeroAllocsMemoHit extends the guard to the memo's hit path: a
// mask change back to a vector solved earlier in the phase stretch.
func TestStepZeroAllocsMemoHit(t *testing.T) {
	r := tenCoreRunner(t)
	pairs := memoPairs()[:2]
	for _, p := range pairs {
		setPair(t, r, p)
		r.Step(0.25)
	}
	i, hits := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		setPair(t, r, pairs[i%2])
		i++
		r.Step(0.25)
		if r.memo.hit >= 0 {
			hits++
		}
	})
	if hits < 90 {
		t.Fatalf("only %d of 101 steps hit the memo", hits)
	}
	if allocs != 0 {
		t.Fatalf("memo-hit Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepEquivalenceReference locks the optimized solver to the retained
// reference implementation: identical masks, caps, parking events and
// steps must produce bit-identical per-proc counters and operating points.
func TestStepEquivalenceReference(t *testing.T) {
	build := func() *Runner { return tenCoreRunner(t) }
	opt := build()
	ref := build()
	ref.UseReferenceSolver(true)

	type event struct {
		step  int
		apply func(r *Runner)
	}
	events := []event{
		{3, func(r *Runner) { _ = r.SetMask(0, cache.ContiguousMask(4, 16)) }},
		{3, func(r *Runner) { _ = r.SetMask(1, cache.ContiguousMask(0, 4)) }},
		{7, func(r *Runner) { _ = r.SetBWCap(1, 20) }},
		{11, func(r *Runner) { _ = r.SetCoreParked(9, true) }},
		{15, func(r *Runner) { _ = r.SetCoreParked(9, false) }},
		{19, func(r *Runner) { _ = r.SetBWCap(1, 0) }},
		{23, func(r *Runner) { _ = r.SetMask(0, cache.ContiguousMask(1, 19)) }},
		{23, func(r *Runner) { _ = r.SetMask(1, cache.ContiguousMask(0, 1)) }},
	}
	for step := 0; step < 40; step++ {
		for _, ev := range events {
			if ev.step == step {
				ev.apply(opt)
				ev.apply(ref)
			}
		}
		opt.Step(0.25)
		ref.Step(0.25)
		if opt.Inflation() != ref.Inflation() || opt.Utilisation() != ref.Utilisation() {
			t.Fatalf("step %d: operating point diverged: inflation %v vs %v, util %v vs %v",
				step, opt.Inflation(), ref.Inflation(), opt.Utilisation(), ref.Utilisation())
		}
		for core := 0; core < 10; core++ {
			po, pr := opt.Proc(core), ref.Proc(core)
			if po.Instructions != pr.Instructions || po.Cycles != pr.Cycles || po.MemBytes != pr.MemBytes {
				t.Fatalf("step %d core %d: counters diverged: instr %v vs %v, cycles %v vs %v, bytes %v vs %v",
					step, core, po.Instructions, pr.Instructions, po.Cycles, pr.Cycles, po.MemBytes, pr.MemBytes)
			}
		}
	}
	so, sr := opt.Snapshot(), ref.Snapshot()
	for c := range so.Clos {
		if so.Clos[c].MemBytes != sr.Clos[c].MemBytes || so.Clos[c].OccupancyBytes != sr.Clos[c].OccupancyBytes {
			t.Fatalf("clos %d: snapshot diverged: %+v vs %+v", c, so.Clos[c], sr.Clos[c])
		}
	}
}

// TestRunnerReset verifies a pooled Runner behaves like a fresh one after
// Reset: same trajectory from the same inputs. The runner memoises
// operating points before the Reset and revisits masks after it, and no
// memoised point may survive into the next run.
func TestRunnerReset(t *testing.T) {
	pairs := memoPairs()[:3]
	walk := func(r *Runner, steps int) {
		for i := 0; i < steps; i++ {
			setPair(t, r, pairs[i%len(pairs)])
			r.Step(0.25)
		}
	}
	fresh := tenCoreRunner(t)
	walk(fresh, 10)

	reused := tenCoreRunner(t)
	walk(reused, 5)
	if reused.memo.n == 0 {
		t.Fatal("the walk memoised nothing before the Reset")
	}
	if err := reused.Reset(2); err != nil {
		t.Fatal(err)
	}
	if reused.time != 0 {
		t.Fatalf("Reset left time at %v", reused.time)
	}
	if reused.Proc(0) != nil {
		t.Fatal("Reset left a process attached")
	}
	if reused.Mask(0) != testMachine().FullMask() || reused.Mask(1) != testMachine().FullMask() {
		t.Fatal("Reset did not restore full masks")
	}
	if reused.memo.n != 0 || len(reused.memo.clos) != 0 || reused.memo.hit != -1 {
		t.Fatalf("Reset kept %d memoised operating points", reused.memo.n)
	}
	// Rebuild the same scenario on the reused Runner.
	if err := reused.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := reused.Attach(i, 1, app.MustByName("gcc_base1")); err != nil {
			t.Fatal(err)
		}
	}
	walk(reused, 10)
	for core := 0; core < 10; core++ {
		pf, pr := fresh.Proc(core), reused.Proc(core)
		if pf.Instructions != pr.Instructions || pf.Cycles != pr.Cycles || pf.MemBytes != pr.MemBytes {
			t.Fatalf("core %d: pooled Runner diverged from fresh after Reset", core)
		}
	}
}
