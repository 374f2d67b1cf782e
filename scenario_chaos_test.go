package dicer

import (
	"errors"
	"testing"
)

func chaosScenario(t *testing.T) *Scenario {
	t.Helper()
	sc := NewScenario("omnetpp1", "gcc_base1", 9)
	sc.HorizonPeriods = 40
	return sc
}

func TestScenarioChaosFacade(t *testing.T) {
	if got := len(ChaosSchedules()); got < 5 {
		t.Fatalf("only %d canned schedules", got)
	}
	if _, err := ChaosScheduleByName("bogus"); err == nil {
		t.Fatal("expected error for unknown schedule")
	}
	cfg, err := ChaosScheduleByName("none")
	if err != nil || cfg.Active() {
		t.Fatalf("none schedule: %+v, %v", cfg, err)
	}
}

func TestScenarioUnderChaos(t *testing.T) {
	cfg, err := ChaosScheduleByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	sc := chaosScenario(t)
	sc.Chaos = &cfg
	sc.ChaosSeed = 7
	sc.CheckInvariants = true
	res, err := sc.Run(NewDICER())
	if err != nil {
		t.Fatal(err)
	}
	st := res.ChaosStats
	if st.Dropouts+st.FrozenReads+st.JitteredReads+st.WritesRejected+st.WritesDelayed == 0 {
		t.Fatalf("storm injected nothing: %v", st)
	}
	if res.Apps[0].IPC <= 0 || res.FinalHPWays <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}

	// Replay: same schedule + seed reproduces the run exactly.
	sc2 := chaosScenario(t)
	sc2.Chaos = &cfg
	sc2.ChaosSeed = 7
	sc2.CheckInvariants = true
	res2, err := sc2.Run(NewDICER())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Apps[0].IPC != res.Apps[0].IPC || res2.ChaosStats != res.ChaosStats ||
		res2.ToleratedFaults != res.ToleratedFaults {
		t.Fatalf("chaos replay diverged:\n%+v\n%+v", res, res2)
	}
}

func TestScenarioChaosValidation(t *testing.T) {
	sc := chaosScenario(t)
	sc.Chaos = &ChaosConfig{DropoutProb: 2}
	if _, err := sc.Run(NewDICER()); err == nil {
		t.Fatal("invalid chaos config accepted")
	}
}

func TestScenarioGuardKeepsRealErrorsFatal(t *testing.T) {
	// Setup failures that are not injected faults must abort the run even
	// with chaos active and the guard on (only ErrChaosInjected is
	// tolerated).
	cfg, err := ChaosScheduleByName("jitter")
	if err != nil {
		t.Fatal(err)
	}
	sc := chaosScenario(t)
	sc.Chaos = &cfg
	sc.CheckInvariants = true
	if _, err := sc.Run(StaticPartition(0)); err == nil ||
		errors.Is(err, ErrChaosInjected) {
		t.Fatalf("zero-way static split not fatal: %v", err)
	}
}

func TestGuardPolicyFacade(t *testing.T) {
	g := GuardPolicy(NewDICER())
	if g.Name() != "DICER+guard" {
		t.Fatalf("name %q", g.Name())
	}
	sc := chaosScenario(t)
	res, err := sc.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "DICER+guard" {
		t.Fatalf("policy name %q", res.PolicyName)
	}
}
