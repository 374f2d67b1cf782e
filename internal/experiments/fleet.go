package experiments

import (
	"fmt"

	"dicer/internal/chaos"
	"dicer/internal/fleet"
	"dicer/internal/report"
)

// FleetConfig parameterises the fleet comparison: one seeded arrival
// trace replayed across every (scheduler, node policy) cell, so the
// cells differ only in how the cluster places jobs and how each node
// partitions its LLC. Every cell is a static fleet without node chaos
// at the fleet's default SLO.
type FleetConfig struct {
	// Nodes is the cluster size. Default fleet.DefaultNodes.
	Nodes int
	// HorizonPeriods is the simulated duration. Default the suite's
	// SweepHorizonPeriods.
	HorizonPeriods int
	// Arrivals drives the shared BE arrival trace. Zero Seed is valid
	// (it is a fixed stream like any other).
	Arrivals fleet.ArrivalConfig
	// Schedulers to compare. Default all of fleet.SchedulerNames().
	Schedulers []string
	// Policies are the node-local policies to compare. Default UM, CT,
	// DICER.
	Policies []PolicyName
	// QueueCap bounds the admission queue. Default fleet.DefaultQueueCap.
	QueueCap int
}

// fleetDefaults fills unset fields from the suite configuration.
func (s *Suite) fleetDefaults(fc FleetConfig) FleetConfig {
	if fc.HorizonPeriods == 0 {
		fc.HorizonPeriods = s.cfg.SweepHorizonPeriods
	}
	if len(fc.Schedulers) == 0 {
		fc.Schedulers = fleet.SchedulerNames()
	}
	if len(fc.Policies) == 0 {
		fc.Policies = []PolicyName{UM, CT, DICER}
	}
	return fc
}

// FleetCell is one (scheduler, policy) outcome of the comparison.
type FleetCell struct {
	Scheduler string
	Policy    PolicyName
	Result    fleet.Result
}

// FleetSuite runs the fleet comparison: every scheduler crossed with
// every node policy over the same arrival trace and chaos schedule.
// Cells run in parallel across the suite worker pool; alone-run
// references go through the suite memo so every cell normalises against
// the same table. Results are returned in (scheduler, policy)
// configuration order.
func (s *Suite) FleetSuite(fc FleetConfig) ([]FleetCell, error) {
	fc = s.fleetDefaults(fc)
	cells := make([]FleetCell, 0, len(fc.Schedulers)*len(fc.Policies))
	for _, sched := range fc.Schedulers {
		for _, pol := range fc.Policies {
			cells = append(cells, FleetCell{Scheduler: sched, Policy: pol})
		}
	}

	if err := s.execute(len(cells), func(i int) error {
		cell := &cells[i]
		c, err := fleet.New(fleet.Config{
			Nodes:          fc.Nodes,
			Machine:        s.cfg.Machine,
			Policy:         string(cell.Policy),
			DICER:          s.cfg.DICER,
			PeriodSec:      s.cfg.PeriodSec,
			StepsPerPeriod: s.cfg.StepsPerPeriod,
			HorizonPeriods: fc.HorizonPeriods,
			Arrivals:       fc.Arrivals,
			Scheduler:      cell.Scheduler,
			QueueCap:       fc.QueueCap,
			AloneIPC:       s.AloneIPC,
		})
		if err != nil {
			return err
		}
		cell.Result, err = c.Run()
		return err
	}); err != nil {
		return nil, err
	}
	return cells, nil
}

// FleetControlConfig parameterises the migration-vs-static control
// grid: the fleet's default scheduler (headroom) and node policy (DICER)
// at the fleet's default size and SLO, while the fleet control loops
// (SLO-burn BE migration, repartition-first autoscaling) are toggled
// across node chaos schedules. Every cell replays the same arrival
// trace; within a chaos column the cells also share the chaos schedule,
// so rows differ only in which control loops run.
type FleetControlConfig struct {
	// HorizonPeriods is the simulated duration. Default the suite's
	// SweepHorizonPeriods.
	HorizonPeriods int
	// Arrivals drives the shared BE arrival trace.
	Arrivals fleet.ArrivalConfig
	// QueueCap bounds the admission queue. Default fleet.DefaultQueueCap.
	QueueCap int
	// ChaosSeed seeds the chaos schedules.
	ChaosSeed int64
}

// Control-grid mode names.
const (
	ControlStatic    = "static"
	ControlMigrate   = "migrate"
	ControlAutoscale = "autoscale"
	ControlBoth      = "both"
)

// FleetControlCell is one (mode, chaos) outcome of the control grid.
type FleetControlCell struct {
	Mode   string
	Chaos  string
	Result fleet.Result
}

// FleetControlGrid runs the migration-vs-static comparison: each
// control mode crossed with each node chaos schedule, one fleet per
// cell, all replaying the same arrival trace. Cells run in parallel
// across the suite worker pool. Results are returned in (mode, chaos)
// configuration order.
func (s *Suite) FleetControlGrid(fc FleetControlConfig) ([]FleetControlCell, error) {
	if fc.HorizonPeriods == 0 {
		fc.HorizonPeriods = s.cfg.SweepHorizonPeriods
	}
	// The grid's rows are the control modes, its columns the canned node
	// chaos schedules (chaos.NodeScheduleByName).
	modes := []string{ControlStatic, ControlMigrate, ControlAutoscale, ControlBoth}
	chaosNames := []string{"none", "node-freeze", "node-storm"}

	// Chaos schedules are generated once per column and shared down it;
	// the generator sizes the schedule for the static fleet (autoscaled
	// nodes beyond the initial count simply see no chaos events, which
	// matches a disruption pattern fixed before the fleet grew).
	schedules := make([]chaos.NodeSchedule, len(chaosNames))
	for i, name := range chaosNames {
		sched, err := chaos.NodeScheduleByName(name, fc.ChaosSeed, fleet.DefaultNodes, fc.HorizonPeriods)
		if err != nil {
			return nil, err
		}
		schedules[i] = sched
	}

	cells := make([]FleetControlCell, 0, len(modes)*len(chaosNames))
	for _, mode := range modes {
		for _, name := range chaosNames {
			cells = append(cells, FleetControlCell{Mode: mode, Chaos: name})
		}
	}

	if err := s.execute(len(cells), func(i int) error {
		cell := &cells[i]
		c, err := fleet.New(fleet.Config{
			Machine:        s.cfg.Machine,
			DICER:          s.cfg.DICER,
			PeriodSec:      s.cfg.PeriodSec,
			StepsPerPeriod: s.cfg.StepsPerPeriod,
			HorizonPeriods: fc.HorizonPeriods,
			Arrivals:       fc.Arrivals,
			QueueCap:       fc.QueueCap,
			NodeChaos:      schedules[i%len(chaosNames)],
			Migration:      fleet.MigrationConfig{Enabled: cell.Mode == ControlMigrate || cell.Mode == ControlBoth},
			Autoscale:      fleet.AutoscaleConfig{Enabled: cell.Mode == ControlAutoscale || cell.Mode == ControlBoth},
			AloneIPC:       s.AloneIPC,
		})
		if err != nil {
			return err
		}
		cell.Result, err = c.Run()
		return err
	}); err != nil {
		return nil, err
	}
	return cells, nil
}

// FleetControlTable renders the control grid: one row per (mode, chaos)
// cell with the control-loop action counts alongside the SLO and
// throughput outcomes.
func FleetControlTable(cells []FleetControlCell) *report.Table {
	t := report.NewTable("Fleet control: migration/autoscale x node chaos",
		"Mode", "Chaos", "FleetEFU", "SLO viol periods", "Evicted",
		"Repacks", "Scale +/-", "Nodes end", "Done", "Dropped")
	for _, c := range cells {
		r := c.Result
		nodesEnd := "-"
		if r.NodesEnd > 0 {
			nodesEnd = fmt.Sprintf("%d", r.NodesEnd)
		}
		t.AddRow(c.Mode, c.Chaos, report.F3(r.FleetEFU),
			fmt.Sprintf("%d", r.SLOViolationPeriods),
			fmt.Sprintf("%d", r.Evicted), fmt.Sprintf("%d", r.Repacks),
			fmt.Sprintf("%d/%d", r.ScaleUps, r.ScaleDowns), nodesEnd,
			fmt.Sprintf("%d", r.Done), fmt.Sprintf("%d", r.Dropped))
	}
	return t
}
