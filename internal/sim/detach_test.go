package sim

import (
	"testing"
	"unsafe"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// TestDetachFreesCore pins the fleet layer's contract: after Detach the
// core is reattachable, the remaining processes keep their identities and
// cumulative counters, and the simulation keeps stepping.
func TestDetachFreesCore(t *testing.T) {
	m := machine.Default()
	r, err := New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	hp := app.MustByName("omnetpp1")
	be := app.MustByName("gcc_base1")
	if err := r.Attach(0, 0, hp); err != nil {
		t.Fatal(err)
	}
	for core := 1; core <= 3; core++ {
		if err := r.Attach(core, 1, be); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	hpInstr := r.Proc(0).Instructions
	core3Instr := r.Proc(3).Instructions
	if hpInstr <= 0 || core3Instr <= 0 {
		t.Fatalf("expected progress before detach, got hp=%g core3=%g", hpInstr, core3Instr)
	}

	if err := r.Detach(2); err != nil {
		t.Fatal(err)
	}
	if r.Proc(2) != nil {
		t.Fatal("core 2 still occupied after Detach")
	}
	if r.Proc(0).Instructions != hpInstr || r.Proc(3).Instructions != core3Instr {
		t.Fatal("detach disturbed surviving processes' counters")
	}

	// The freed core accepts a new process and everything advances.
	if err := r.Attach(2, 1, app.MustByName("milc1")); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	if r.Proc(2).Instructions <= 0 {
		t.Fatal("re-attached process made no progress")
	}
	if r.Proc(0).Instructions <= hpInstr {
		t.Fatal("HP made no progress after detach/attach")
	}
}

func TestDetachErrors(t *testing.T) {
	r, err := New(machine.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Detach(0); err == nil {
		t.Fatal("Detach on empty core should error")
	}
	if err := r.Detach(-1); err == nil {
		t.Fatal("Detach on negative core should error")
	}
	if err := r.Detach(99); err == nil {
		t.Fatal("Detach on out-of-range core should error")
	}
}

// TestDetachMatchesFreshRunner holds the determinism contract the fleet
// trace relies on: a runner that went through attach/detach churn on one
// core behaves identically to a fresh runner with the same final
// population, modulo the survivors' already-accumulated counters.
func TestDetachMatchesFreshRunner(t *testing.T) {
	m := machine.Default()
	build := func(churn bool) *Runner {
		r, err := New(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
			t.Fatal(err)
		}
		if churn {
			if err := r.Attach(1, 1, app.MustByName("lbm1")); err != nil {
				t.Fatal(err)
			}
			if err := r.Detach(1); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Attach(1, 1, app.MustByName("gcc_base1")); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := build(false), build(true)
	for i := 0; i < 40; i++ {
		a.Step(0.25)
		b.Step(0.25)
	}
	for core := 0; core <= 1; core++ {
		if a.Proc(core).Instructions != b.Proc(core).Instructions ||
			a.Proc(core).Cycles != b.Proc(core).Cycles {
			t.Fatalf("core %d diverged after attach/detach churn", core)
		}
	}
}

// TestAttachKeepsScratch pins that New sizes the per-process scratch for
// a process on every core: attaching that many keeps every backing
// array, and each slice Attach sizes holds one entry per process.
func TestAttachKeepsScratch(t *testing.T) {
	r, err := New(machine.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	backing := func() map[string]unsafe.Pointer {
		return map[string]unsafe.Pointer{
			"procs":      unsafe.Pointer(unsafe.SliceData(r.procs)),
			"shares":     unsafe.Pointer(unsafe.SliceData(r.shares)),
			"pressure":   unsafe.Pointer(unsafe.SliceData(r.pressure)),
			"opMiss":     unsafe.Pointer(unsafe.SliceData(r.opMiss)),
			"reach":      unsafe.Pointer(unsafe.SliceData(r.reach)),
			"capsBuf":    unsafe.Pointer(unsafe.SliceData(r.capsBuf)),
			"allocBuf":   unsafe.Pointer(unsafe.SliceData(r.allocBuf)),
			"lastPhases": unsafe.Pointer(unsafe.SliceData(r.lastPhases)),
			"activeBuf":  unsafe.Pointer(unsafe.SliceData(r.activeBuf)),
			"runCnt":     unsafe.Pointer(unsafe.SliceData(r.runCnt)),
			"wfLive":     unsafe.Pointer(unsafe.SliceData(r.wfLive)),
			"occClos":    unsafe.Pointer(unsafe.SliceData(r.occClos)),
			"occMembers": unsafe.Pointer(unsafe.SliceData(r.occMembers)),
		}
	}
	want := backing()
	gcc := app.MustByName("gcc_base1")
	for core := 0; core < r.Machine().Cores; core++ {
		if err := r.Attach(core, core%2, gcc); err != nil {
			t.Fatal(err)
		}
		for name, p := range backing() {
			if p != want[name] {
				t.Fatalf("attaching core %d reallocated %s", core, name)
			}
		}
		n := core + 1
		for name, got := range map[string]int{"procs": len(r.procs), "shares": len(r.shares),
			"pressure": len(r.pressure), "opMiss": len(r.opMiss), "reach": len(r.reach),
			"capsBuf": len(r.capsBuf), "allocBuf": len(r.allocBuf), "runCnt": len(r.runCnt),
			"lastPhases": len(r.lastPhases)} {
			if got != n {
				t.Fatalf("after %d attaches len(%s) = %d", n, name, got)
			}
		}
	}
}
