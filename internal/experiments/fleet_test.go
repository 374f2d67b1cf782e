package experiments

import (
	"testing"

	"dicer/internal/fleet"
)

// fleetTestConfig is the comparison load: enough streamers that careless
// placement saturates individual links, light enough that the headroom
// scheduler rarely has to queue.
func fleetTestConfig() FleetConfig {
	return FleetConfig{
		Nodes:          4,
		HorizonPeriods: 80,
		Arrivals: fleet.ArrivalConfig{
			Seed: 42, RatePerPeriod: 2, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
		QueueCap: 40,
	}
}

// TestFleetSuite runs the scheduler × policy grid once and checks the
// relationships the fleet layer exists to demonstrate.
func TestFleetSuite(t *testing.T) {
	s, err := NewSuite(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.FleetSuite(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(fleet.SchedulerNames())*3 {
		t.Fatalf("got %d cells, want %d", len(cells), len(fleet.SchedulerNames())*3)
	}

	byCell := map[string]fleet.Result{}
	for _, c := range cells {
		byCell[c.Scheduler+"/"+string(c.Policy)] = c.Result
	}

	// Every cell consumed the same arrival trace.
	want := cells[0].Result.Arrivals
	if want == 0 {
		t.Fatal("no arrivals generated")
	}
	for key, r := range byCell {
		if r.Arrivals != want {
			t.Errorf("%s saw %d arrivals, others %d: trace not shared", key, r.Arrivals, want)
		}
	}

	// Acceptance: the headroom scheduler beats random on fleet EFU at
	// equal-or-fewer HP SLO-violation periods under the DICER policy.
	hr, rnd := byCell["headroom/DICER"], byCell["random/DICER"]
	if hr.FleetEFU <= rnd.FleetEFU {
		t.Errorf("headroom fleet EFU %.4f not above random %.4f", hr.FleetEFU, rnd.FleetEFU)
	}
	if hr.SLOViolationPeriods > rnd.SLOViolationPeriods {
		t.Errorf("headroom SLO violations %d exceed random %d", hr.SLOViolationPeriods, rnd.SLOViolationPeriods)
	}

	// The single-node policy ordering survives consolidation: UM runs
	// hottest but violates the HP SLO far more than the partitioned
	// policies; DICER recovers EFU over CT without UM's violation rate.
	for _, sched := range fleet.SchedulerNames() {
		um := byCell[sched+"/UM"]
		ct := byCell[sched+"/CT"]
		di := byCell[sched+"/DICER"]
		if um.SLOViolationPeriods <= 2*ct.SLOViolationPeriods {
			t.Errorf("%s: UM violations %d not well above CT's %d", sched, um.SLOViolationPeriods, ct.SLOViolationPeriods)
		}
		if di.FleetEFU <= ct.FleetEFU {
			t.Errorf("%s: DICER fleet EFU %.4f not above CT %.4f", sched, di.FleetEFU, ct.FleetEFU)
		}
		if di.SLOViolationPeriods >= um.SLOViolationPeriods {
			t.Errorf("%s: DICER violations %d not below UM %d", sched, di.SLOViolationPeriods, um.SLOViolationPeriods)
		}
	}
}

// TestFleetSuiteDeterministic pins cell-level reproducibility across
// suites (fresh memo caches, parallel execution).
func TestFleetSuiteDeterministic(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.HorizonPeriods = 30
	cfg.Schedulers = []string{"headroom", "random"}
	cfg.Policies = []PolicyName{DICER}

	run := func() []FleetCell {
		s, err := NewSuite(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cells, err := s.FleetSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
