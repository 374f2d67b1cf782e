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

// TestFleetControlGrid runs the control grid as dicer-bench -fleetgrid
// does and checks the grid's own claim, that its rows differ only in
// which control loops run. It asserts no ordering between the modes.
func TestFleetControlGrid(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.FleetControlGrid(FleetControlConfig{
		HorizonPeriods: cfg.HorizonPeriods,
		Arrivals: fleet.ArrivalConfig{
			Seed: 42, RatePerPeriod: 3, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
		QueueCap:  40,
		ChaosSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 4 modes x 3 chaos schedules", len(cells))
	}
	if cells[0].Result.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	column := map[string]fleet.Result{} // each chaos column's first cell
	for _, c := range cells {
		r, cell := c.Result, c.Mode+"/"+c.Chaos
		if r.Arrivals != cells[0].Result.Arrivals {
			t.Errorf("%s saw %d arrivals, the first cell %d", cell, r.Arrivals, cells[0].Result.Arrivals)
		}
		if got := r.Done + r.RunningEnd + r.QueuedEnd + r.Dropped; got != r.Admitted {
			t.Errorf("%s: done %d + running %d + queued %d + dropped %d = %d, want admitted %d",
				cell, r.Done, r.RunningEnd, r.QueuedEnd, r.Dropped, got, r.Admitted)
		}
		if first, ok := column[c.Chaos]; !ok {
			column[c.Chaos] = r
		} else if r.Freezes != first.Freezes || r.Losses != first.Losses {
			t.Errorf("%s: %d freezes and %d losses, the column's first cell %d and %d",
				cell, r.Freezes, r.Losses, first.Freezes, first.Losses)
		}
		autoscaled := r.Repacks + r.ScaleUps + r.ScaleDowns
		var ok bool
		switch c.Mode {
		case ControlStatic:
			ok = r.Migrations+r.Evicted+autoscaled == 0 && r.NodesEnd == 0
		case ControlMigrate:
			ok = r.Migrations > 0 && autoscaled == 0
		case ControlAutoscale:
			ok = r.ScaleUps > 0 && r.Evicted == 0
		case ControlBoth:
			ok = r.Migrations > 0 && r.ScaleUps > 0
		}
		if !ok {
			t.Errorf("%s: control actions do not match the mode: %d migrations (%d evicted), %d repacks, %d/%d scale-ups/downs, %d nodes at end",
				cell, r.Migrations, r.Evicted, r.Repacks, r.ScaleUps, r.ScaleDowns, r.NodesEnd)
		}
	}
}
