package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dicer/internal/experiments"
	"dicer/internal/fleet"
)

// fleetRecord is the perf-trajectory record BENCH_fleet.json carries.
// Two measurements share the record: the 4-node scheduler comparison
// (placement-quality headline, unchanged shape since the fleet landed)
// and the production-scale run — a 1000-node multi-HP cluster with the
// SLO-burn migration loop enabled, stepped through the sharded
// executor. RealTimeFactor is simulated seconds per wall second
// (periods × PeriodSec ÷ wall); above 1 the simulator outruns the
// cluster it models.
type fleetRecord struct {
	Benchmark string `json:"benchmark"`

	Nodes           int     `json:"nodes"`
	Periods         int     `json:"periods"`
	Workers         int     `json:"workers"`
	NodePeriods     int64   `json:"node_periods"`
	WallSeconds     float64 `json:"wall_seconds"`
	NsPerNodePeriod float64 `json:"ns_per_node_period"`
	RealTimeFactor  float64 `json:"real_time_factor"`

	ScaleFleetEFU   float64 `json:"scale_fleet_efu"`
	ScaleSLOViol    int     `json:"scale_slo_violation_periods"`
	ScaleDone       int     `json:"scale_done"`
	ScaleMigrations int     `json:"scale_migrations"`
	ScaleEvicted    int     `json:"scale_evicted"`
	// Forensics/ScaleIncidents record whether the flight recorder was
	// armed for the timed run (-forensics) and how many incident bundles
	// it sealed; the recorder must fit inside the ns_per_node_period gate.
	Forensics      bool `json:"forensics,omitempty"`
	ScaleIncidents int  `json:"scale_incidents,omitempty"`

	HeadroomEFU      float64 `json:"headroom_fleet_efu"`
	RandomEFU        float64 `json:"random_fleet_efu"`
	HeadroomSLOViol  int     `json:"headroom_slo_violation_periods"`
	RandomSLOViol    int     `json:"random_slo_violation_periods"`
	HeadroomP95Wait  float64 `json:"headroom_p95_wait_periods"`
	HeadroomRejected int     `json:"headroom_rejected"`
}

// scaleFleetConfig is the pinned production-scale configuration: 1000
// two-HP nodes under headroom placement and per-node DICER, arrivals
// scaled to keep roughly half the BE capacity busy, burn-rate migration
// on. Autoscaling stays off so node_periods is exactly nodes × periods
// and the throughput figure is comparable across PRs.
func scaleFleetConfig(cfg experiments.Config, workers int, forensics bool, alone func(string) (float64, error)) fleet.Config {
	fc := fleet.Config{
		Nodes:          1000,
		HPsPerNode:     2,
		Machine:        cfg.Machine,
		Policy:         "DICER",
		DICER:          cfg.DICER,
		PeriodSec:      cfg.PeriodSec,
		StepsPerPeriod: cfg.StepsPerPeriod,
		HorizonPeriods: 60,
		Scheduler:      "headroom",
		QueueCap:       2000,
		Workers:        workers,
		Migration:      fleet.MigrationConfig{Enabled: true},
		Arrivals: fleet.ArrivalConfig{
			Seed: 42, RatePerPeriod: 400, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
		AloneIPC: alone,
	}
	if forensics {
		fc.Forensics = fleet.ForensicsConfig{Enabled: true}
	}
	return fc
}

// writeFleetJSON measures both fleet benchmarks on a fresh suite. The
// 4-node scheduler comparison runs first; besides its quality headline
// it warms the suite's alone-run memo, so the timed 1000-node run pays
// for stepping, placement and migration — not for alone references.
func writeFleetJSON(cfg experiments.Config, path string, forensics bool) error {
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	fc := experiments.FleetConfig{
		Nodes:          4,
		HorizonPeriods: cfg.HorizonPeriods,
		Arrivals: fleet.ArrivalConfig{
			Seed: 42, RatePerPeriod: 2, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
		QueueCap: 40,
		Policies: []experiments.PolicyName{experiments.DICER},
	}
	cells, err := suite.FleetSuite(fc)
	if err != nil {
		return err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scale := scaleFleetConfig(cfg, workers, forensics, suite.AloneIPC)
	c, err := fleet.New(scale)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := c.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)

	rec := fleetRecord{
		Benchmark:   "fleetScale1000",
		Nodes:       scale.Nodes,
		Periods:     scale.HorizonPeriods,
		Workers:     workers,
		NodePeriods: int64(scale.Nodes) * int64(scale.HorizonPeriods),
		WallSeconds: wall.Seconds(),

		ScaleFleetEFU:   res.FleetEFU,
		ScaleSLOViol:    res.SLOViolationPeriods,
		ScaleDone:       res.Done,
		ScaleMigrations: res.Migrations,
		ScaleEvicted:    res.Evicted,
		Forensics:       forensics,
		ScaleIncidents:  res.Incidents,
	}
	rec.NsPerNodePeriod = float64(wall.Nanoseconds()) / float64(rec.NodePeriods)
	rec.RealTimeFactor = float64(scale.HorizonPeriods) * scale.PeriodSec / wall.Seconds()
	for _, cell := range cells {
		switch cell.Scheduler {
		case "headroom":
			rec.HeadroomEFU = cell.Result.FleetEFU
			rec.HeadroomSLOViol = cell.Result.SLOViolationPeriods
			rec.HeadroomP95Wait = cell.Result.P95QueueWait
			rec.HeadroomRejected = cell.Result.Rejected
		case "random":
			rec.RandomEFU = cell.Result.FleetEFU
			rec.RandomSLOViol = cell.Result.SLOViolationPeriods
		}
	}

	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("fleet: %d nodes x %d periods (%d workers), %.2f s wall, %.0f ns/node-period, %.1fx real time\n"+
		"       scale EFU %.4f (slo %d, %d migrations evicting %d), headroom EFU %.4f vs random %.4f\n",
		rec.Nodes, rec.Periods, rec.Workers, rec.WallSeconds, rec.NsPerNodePeriod, rec.RealTimeFactor,
		rec.ScaleFleetEFU, rec.ScaleSLOViol, rec.ScaleMigrations, rec.ScaleEvicted,
		rec.HeadroomEFU, rec.RandomEFU)
	if forensics {
		fmt.Printf("       flight recorder armed: %d incident bundle(s) sealed during the timed run\n",
			rec.ScaleIncidents)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeFleetGrid runs the control grid behind -fleetgrid: each control
// mode (static / migrate / autoscale / both) crossed with each node
// chaos schedule over the saturating stream-heavy mix the hypothesis
// registry uses, rendered as the EXPERIMENTS.md migration-vs-static
// table.
func writeFleetGrid(cfg experiments.Config, w io.Writer) error {
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	cells, err := suite.FleetControlGrid(experiments.FleetControlConfig{
		HorizonPeriods: cfg.HorizonPeriods,
		Arrivals: fleet.ArrivalConfig{
			Seed: 42, RatePerPeriod: 3, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
		QueueCap:  40,
		ChaosSeed: 1,
	})
	if err != nil {
		return err
	}
	return experiments.FleetControlTable(cells).Render(w)
}
