package dicer

import (
	"bytes"
	"math"
	"testing"
)

func TestDefaultMachineIsPaperPlatform(t *testing.T) {
	m := DefaultMachine()
	if m.Cores != 10 || m.LLCWays != 20 || m.LLCBytes != 25<<20 {
		t.Fatalf("unexpected default machine %+v", m)
	}
}

func TestDefaultControllerConfigIsTable1(t *testing.T) {
	c := DefaultControllerConfig()
	if c.PeriodSec != 1 || c.BWThresholdGbps != 50 ||
		c.PhaseThreshold != 0.30 || c.StabilityAlpha != 0.05 {
		t.Fatalf("unexpected defaults %+v", c)
	}
}

func TestNewDICERWithValidation(t *testing.T) {
	if _, err := NewDICERWith(ControllerConfig{}); err == nil {
		t.Fatal("expected error for zero config")
	}
	if _, err := NewDICERWith(DefaultControllerConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogFacade(t *testing.T) {
	if got := len(Catalog()); got != 59 {
		t.Fatalf("catalog = %d apps", got)
	}
	if got := len(AppNames()); got != 59 {
		t.Fatalf("names = %d", got)
	}
	if _, err := AppByName("milc1"); err != nil {
		t.Fatal(err)
	}
	if _, err := AppByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMetricFacades(t *testing.T) {
	if got := EFU([]float64{1, 0.5}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("EFU = %g", got)
	}
	if got := SUCI(true, 0.81, 0.5); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("SUCI = %g", got)
	}
	if SUCI(false, 0.81, 1) != 0 {
		t.Fatal("missed SLO should zero SUCI")
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := &Scenario{HPs: []HPApp{{Profile: mustApp(t, "milc1")}}}
	if _, err := sc.Run(Unmanaged()); err == nil {
		t.Fatal("expected error for no BEs")
	}
	bes := make([]Profile, 10)
	for i := range bes {
		bes[i] = mustApp(t, "gcc_base1")
	}
	sc = &Scenario{HPs: []HPApp{{Profile: mustApp(t, "milc1")}}, BEs: bes}
	if _, err := sc.Run(Unmanaged()); err == nil {
		t.Fatal("expected error for too many applications")
	}
}

func mustApp(t *testing.T, name string) Profile {
	t.Helper()
	p, err := AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScenarioRunUM(t *testing.T) {
	sc := NewScenario("namd1", "povray1", 3)
	sc.HorizonPeriods = 20
	res, err := sc.Run(Unmanaged())
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "UM" {
		t.Fatalf("policy %q", res.PolicyName)
	}
	if res.FinalHPWays != 20 {
		t.Fatalf("UM final HP ways = %d, want full 20", res.FinalHPWays)
	}
	if len(res.BEIPCs) != 3 || len(res.BEAloneIPCs) != 3 {
		t.Fatalf("BE result sizes %d/%d", len(res.BEIPCs), len(res.BEAloneIPCs))
	}
	// Compute-bound pair: co-location barely hurts.
	if res.HPNorm() < 0.90 {
		t.Fatalf("compute pair HP norm %.3f, want >= 0.90", res.HPNorm())
	}
	if e := res.EFU(); e <= 0 || e > 1 {
		t.Fatalf("EFU %g out of range", e)
	}
}

func TestScenarioRunCT(t *testing.T) {
	sc := NewScenario("omnetpp1", "gcc_base1", 9)
	sc.HorizonPeriods = 20
	res, err := sc.Run(CacheTakeover())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHPWays != 19 {
		t.Fatalf("CT final HP ways = %d, want 19", res.FinalHPWays)
	}
	// CT protects a cache-sensitive HP well.
	if res.HPNorm() < 0.8 {
		t.Fatalf("CT HP norm %.3f", res.HPNorm())
	}
}

func TestScenarioRunDICERBeatsCTOnUtilisation(t *testing.T) {
	mk := func() *Scenario {
		sc := NewScenario("omnetpp1", "gcc_base1", 9)
		sc.HorizonPeriods = 60
		return sc
	}
	ct, err := mk().Run(CacheTakeover())
	if err != nil {
		t.Fatal(err)
	}
	dicer, err := mk().Run(NewDICER())
	if err != nil {
		t.Fatal(err)
	}
	if dicer.EFU() <= ct.EFU() {
		t.Fatalf("DICER EFU %.3f <= CT %.3f", dicer.EFU(), ct.EFU())
	}
	// And it still protects the HP to within a few percent of CT.
	if dicer.HPNorm() < ct.HPNorm()-0.10 {
		t.Fatalf("DICER HP norm %.3f far below CT %.3f", dicer.HPNorm(), ct.HPNorm())
	}
}

func TestScenarioStaticSweepShape(t *testing.T) {
	// milc + gcc: generous HP partitions are worse than small ones.
	slow := func(ways int) float64 {
		sc := NewScenario("milc1", "gcc_base1", 9)
		sc.HorizonPeriods = 30
		res, err := sc.Run(StaticPartition(ways))
		if err != nil {
			t.Fatal(err)
		}
		return res.HPSlowdown()
	}
	if s2, s19 := slow(2), slow(19); s19 <= s2 {
		t.Fatalf("19-way slowdown %.3f <= 2-way %.3f (bandwidth saturation missing)", s19, s2)
	}
}

func TestScenarioOnPeriodCallback(t *testing.T) {
	sc := NewScenario("milc1", "gcc_base1", 4)
	sc.HorizonPeriods = 7
	var periods int
	var lastBW float64
	sc.OnPeriod = func(period int, p Period) {
		periods++
		lastBW = p.TotalGbps
	}
	if _, err := sc.Run(Unmanaged()); err != nil {
		t.Fatal(err)
	}
	if periods != 7 {
		t.Fatalf("callback fired %d times, want 7", periods)
	}
	if lastBW <= 0 {
		t.Fatal("callback saw no bandwidth")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() ScenarioResult {
		sc := NewScenario("Xalan1", "bzip21", 5)
		sc.HorizonPeriods = 25
		res, err := sc.Run(NewDICER())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Apps[0].IPC != b.Apps[0].IPC || a.FinalHPWays != b.FinalHPWays {
		t.Fatalf("non-deterministic scenario: %+v vs %+v", a, b)
	}
}

func TestScenarioSLOAndSUCI(t *testing.T) {
	sc := NewScenario("namd1", "swaptions1", 2)
	sc.HorizonPeriods = 15
	res, err := sc.Run(CacheTakeover())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SLOAchieved(0.5) {
		t.Fatal("a compute pair must meet a 50% SLO")
	}
	if res.SUCI(0.5, 1) != res.EFU() {
		t.Fatal("SUCI identity at lambda 1")
	}
	if res.SUCI(1.01, 1) != 0 {
		t.Fatal("impossible SLO must zero SUCI")
	}
}

func TestAloneIPCFacade(t *testing.T) {
	prof := mustApp(t, "namd1")
	ipc, err := AloneIPC(Machine{}, prof)
	if err != nil {
		t.Fatal(err)
	}
	// namd is compute-bound: IPC near 1/BaseCPI.
	if ipc < 1.5 || ipc > 2.0 {
		t.Fatalf("namd alone IPC %.3f implausible", ipc)
	}
	// Must agree with the reference the scenario itself computes.
	sc := NewScenario("namd1", "povray1", 1)
	sc.HorizonPeriods = 20
	res, err := sc.Run(Unmanaged())
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Apps[0].AloneIPC - ipc; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("facade alone IPC %.6f != scenario reference %.6f", ipc, res.Apps[0].AloneIPC)
	}
}

func TestSLOMonitorFacade(t *testing.T) {
	prof := mustApp(t, "omnetpp1")
	ref, err := AloneIPC(Machine{}, prof)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewSLOMonitor(ref, 0.90, 10, 0.8)
	sc := NewScenario("omnetpp1", "gcc_base1", 9)
	sc.HorizonPeriods = 30
	sc.OnPeriod = func(_ int, p Period) {
		mon.Observe(p.ClosMeanIPC(0))
	}
	if _, err := sc.Run(NewDICER()); err != nil {
		t.Fatal(err)
	}
	if c := mon.Conformance(); c < 0 || c > 1 {
		t.Fatalf("conformance %g out of range", c)
	}
}

func TestFleetFacade(t *testing.T) {
	var buf bytes.Buffer
	cl, err := NewFleet(FleetConfig{
		Nodes:          2,
		HorizonPeriods: 8,
		Arrivals:       FleetArrivals{Seed: 3, RatePerPeriod: 1, MeanDurationPeriods: 4},
		Trace:          &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != 8 || res.Nodes != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
	h, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes != 2 || len(recs) != 8 {
		t.Fatalf("trace header %+v with %d records", h, len(recs))
	}

	names := FleetSchedulerNames()
	if len(names) == 0 {
		t.Fatal("no schedulers")
	}
	for _, name := range names {
		if _, err := FleetSchedulerByName(name, 1); err != nil {
			t.Errorf("scheduler %q: %v", name, err)
		}
	}
	if _, err := FleetSchedulerByName("nope", 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := NodeChaosScheduleByName("node-storm", 1, 2, 8); err != nil {
		t.Errorf("node-storm schedule: %v", err)
	}

	exp := NewFleetExporter()
	exp.Observe(recs[0].Sample())
	var out bytes.Buffer
	if _, err := exp.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("dicer_fleet_efu")) {
		t.Fatalf("exporter output missing fleet gauge:\n%s", out.String())
	}
}
