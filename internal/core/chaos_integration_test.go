// Integration of the controller with the fault-injection and invariant
// layers. This lives in package core_test because internal/invariant
// imports internal/core; the external test package breaks the cycle.
package core_test

import (
	"errors"
	"fmt"
	"testing"

	"dicer/internal/app"
	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"

	"dicer/internal/machine"
)

// chaosRun drives a guarded controller through one chaos schedule and
// returns a decision fingerprint plus the fault stats.
func chaosRun(t *testing.T, sched chaos.Config, seed int64, periods int) (string, chaos.Stats) {
	t.Helper()
	r, err := sim.New(machine.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, policy.HPClos, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 9; c++ {
		if err := r.Attach(c, policy.BEClos, app.MustByName("gcc_base1")); err != nil {
			t.Fatal(err)
		}
	}
	sys := chaos.New(resctrl.NewEmu(r, false), sched, seed)
	ctl := core.MustNew(core.DefaultConfig())
	g := invariant.NewGuard(ctl, ctl.Config())
	if err := g.Setup(sys); err != nil && !errors.Is(err, chaos.ErrInjected) {
		t.Fatal(err)
	}
	meter := resctrl.NewMeter(sys)
	fp := ""
	for i := 0; i < periods; i++ {
		r.Step(1)
		err := g.Observe(sys, meter.Sample())
		var ie *invariant.Error
		switch {
		case errors.As(err, &ie):
			// Guard joins the inner error with the check result, so a
			// violation is visible even alongside an injected fault.
			t.Fatalf("period %d: invariant violated under %q/seed %d: %v",
				i, sched.Name, seed, err)
		case err == nil, errors.Is(err, chaos.ErrInjected):
			// Actuation fault: retried implicitly next period.
		default:
			t.Fatal(err)
		}
		fp += fmt.Sprintf("%d:%s:%d|", ctl.HPWays(), ctl.GroupState(0), ctl.Period())
	}
	return fp, sys.Stats()
}

// TestControllerSurvivesAllSchedules runs the guarded controller under
// every fault schedule: no invariant may break, and the controller must
// keep making one decision per period.
func TestControllerSurvivesAllSchedules(t *testing.T) {
	for _, sched := range chaos.Schedules() {
		sched := sched
		t.Run(sched.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				fp, stats := chaosRun(t, sched, seed, 80)
				if fp == "" {
					t.Fatal("no decisions recorded")
				}
				total := stats.Dropouts + stats.FrozenReads + stats.JitteredReads +
					stats.WritesRejected + stats.WritesDelayed
				if total == 0 {
					t.Errorf("seed %d: schedule injected no faults (%v)", seed, stats)
				}
			}
		})
	}
}

// TestControllerChaosReplay pins determinism at the controller level:
// identical (schedule, seed) yields an identical decision trace.
func TestControllerChaosReplay(t *testing.T) {
	sched, err := chaos.ScheduleByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	fp1, s1 := chaosRun(t, sched, 42, 60)
	fp2, s2 := chaosRun(t, sched, 42, 60)
	if fp1 != fp2 || s1 != s2 {
		t.Fatalf("controller decisions diverged on replay:\n%s\n%s", fp1, fp2)
	}
	fp3, _ := chaosRun(t, sched, 43, 60)
	if fp3 == fp1 {
		t.Error("different seed produced an identical decision trace")
	}
}
