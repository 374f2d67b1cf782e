package sim

import (
	"testing"
	"unsafe"

	"dicer/internal/app"
)

// followers counts the processes that copy a lockstep lead.
func followers(r *Runner) int {
	n := 0
	for i, s := range r.procs {
		if int(s.lead) != i {
			n++
		}
	}
	return n
}

// leadOf returns the core of the lead of the process on core.
func leadOf(r *Runner, core int) int {
	return r.procs[r.procs[r.coreIndex[core]].lead].core
}

// TestLockstepMatchesReference holds the lockstep runner to the reference
// solver bit for bit after every step of a script that splits the nine BE
// copies' set at its lead with every structural write that can split one:
// it parks and unparks the lead, moves the next lead to the HP's CLOS and
// back, detaches the next, and then attaches two fresh copies of the BE
// profile, which must form a set of their own rather than join the old
// one. Masks cycle every step, so the full solve, memo hits and phase
// crossings all run with followers present, and one stretch has an MBA
// cap on the BE CLOS.
func TestLockstepMatchesReference(t *testing.T) {
	opt, ref := tenCoreRunner(t), tenCoreRunner(t)
	ref.UseReferenceSolver(true)
	gcc := app.MustByName("gcc_base1")
	type write struct {
		split     int // core of the lead the write splits off, or -1
		do        func(r *Runner) error
		followers int // followers once the write has landed
	}
	script := map[int][]write{
		20: {{1, func(r *Runner) error { return r.SetCoreParked(1, true) }, 7}},
		40: {{-1, func(r *Runner) error { return r.SetCoreParked(1, false) }, 7}},
		60: {{2, func(r *Runner) error { return r.SetClos(2, 0) }, 6}},
		80: {{-1, func(r *Runner) error { return r.SetClos(2, 1) }, 6}},
		100: {
			{3, func(r *Runner) error { return r.Detach(3) }, 5},
			{-1, func(r *Runner) error { return r.Detach(1) }, 5},
		},
		120: {
			{-1, func(r *Runner) error { return r.Attach(1, 1, gcc) }, 5},
			{-1, func(r *Runner) error { return r.Attach(3, 1, gcc) }, 6},
		},
		150: {{-1, func(r *Runner) error { return r.SetBWCap(1, 20) }, 6}},
		180: {{-1, func(r *Runner) error { return r.SetBWCap(1, 0) }, 6}},
	}
	pairs := memoPairs()
	cycle := []maskPair{pairs[0], pairs[1], pairs[10]}
	if n := followers(opt); n != 8 {
		t.Fatalf("the nine BE copies start with %d followers, want 8", n)
	}
	phaseChanges, lastPhase := 0, opt.Proc(4).PhaseIndex()
	for step := 0; step < 360; step++ {
		for _, w := range script[step] {
			if w.split >= 0 && (leadOf(opt, w.split) != w.split || followers(opt) == 0) {
				t.Fatalf("step %d: core %d leads no set before its split", step, w.split)
			}
			for _, r := range []*Runner{opt, ref} {
				if err := w.do(r); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if n := followers(opt); n != w.followers {
				t.Fatalf("step %d: %d followers after the write, want %d", step, n, w.followers)
			}
		}
		if step == 120 && (leadOf(opt, 3) != 1 || leadOf(opt, 4) != 4) {
			t.Fatalf("fresh copies lead %d and %d, want their own set led by core 1 beside the old one led by core 4",
				leadOf(opt, 3), leadOf(opt, 4))
		}
		p := cycle[step%len(cycle)]
		setPair(t, opt, p)
		setPair(t, ref, p)
		opt.Step(0.25)
		ref.Step(0.25)
		if ph := opt.Proc(4).PhaseIndex(); ph != lastPhase {
			phaseChanges++
			lastPhase = ph
		}
		compareRunners(t, step, opt, ref)
	}
	// The set must cross a phase boundary while it has followers.
	if phaseChanges < 2 {
		t.Fatalf("script lost its coverage: %d phase changes of the BE set", phaseChanges)
	}
}

// TestSlotLeadInPadding pins the slot layout on 64-bit platforms: the
// lockstep lead index sits in the padding after parked, so a slot stays
// the size it was without one.
func TestSlotLeadInPadding(t *testing.T) {
	type bare struct {
		core   int
		clos   int
		proc   *app.Proc
		parked bool
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(slot{}), unsafe.Sizeof(bare{}); got != want {
		t.Fatalf("slot is %d bytes, %d without its lead index", got, want)
	}
}
