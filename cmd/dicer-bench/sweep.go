package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dicer/internal/app"
	"dicer/internal/experiments"
)

// sweepRecord is the perf-trajectory record BENCH_sweep.json carries: one
// uncached full-catalog sweep, so future PRs can compare like for like.
// The headline wall/ns/allocs figures come from the run at the configured
// worker count; above one worker a serial re-run exposes the executor's
// speedup and parallel efficiency (speedup ÷ workers), and at one worker
// those fields are left out.
// The dicer_* figures time the same pairs under DICER, whose mask
// decisions drive the simulator's re-solve and memo paths, which the
// static UM/CT masks never reach.
type sweepRecord struct {
	Benchmark     string  `json:"benchmark"`
	Workloads     int     `json:"workloads"`
	Steps         int64   `json:"steps"`
	WallSeconds   float64 `json:"wall_seconds"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	UMCDF11Pct    float64 `json:"um_cdf_1_1x_pct"`
	CTCDF11Pct    float64 `json:"ct_cdf_1_1x_pct"`

	Workers            int     `json:"workers"`
	SerialWallSeconds  float64 `json:"serial_wall_seconds,omitempty"`
	SpeedupVsSerial    float64 `json:"speedup_vs_serial,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`

	DicerSteps         int64   `json:"dicer_steps"`
	DicerWallSeconds   float64 `json:"dicer_wall_seconds"`
	DicerNsPerStep     float64 `json:"dicer_ns_per_step"`
	DicerAllocsPerStep float64 `json:"dicer_allocs_per_step"`
}

// onFreshSuite runs f on a fresh suite — nothing memoised, every cell
// simulated — and returns its wall time and allocation count.
func onFreshSuite(cfg experiments.Config, f func(*experiments.Suite) error) (time.Duration, uint64, error) {
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return 0, 0, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	if err := f(suite); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	return wall, msAfter.Mallocs - msBefore.Mallocs, nil
}

// runSweep executes the full 59×59 baseline sweep (Figure 1) on a fresh
// suite and returns the figure, wall time, and the allocation count over
// the run.
func runSweep(cfg experiments.Config) (experiments.Figure1Result, time.Duration, uint64, error) {
	var f experiments.Figure1Result
	wall, mallocs, err := onFreshSuite(cfg, func(s *experiments.Suite) error {
		var err error
		f, err = s.Figure1(cfg.Machine.Cores - 1)
		return err
	})
	return f, wall, mallocs, err
}

// runDicerSweep runs DICER on every pair of the sweep at its horizon on a
// fresh suite and returns the wall time and allocation count.
func runDicerSweep(cfg experiments.Config) (time.Duration, uint64, error) {
	var jobs []experiments.Job
	for _, w := range experiments.Pairs(cfg.Machine.Cores - 1) {
		jobs = append(jobs, experiments.Job{W: w, Policy: experiments.DICER, Horizon: cfg.SweepHorizonPeriods})
	}
	return onFreshSuite(cfg, func(s *experiments.Suite) error {
		_, err := s.RunMany(jobs)
		return err
	})
}

// writeSweepJSON measures the uncached sweep at the configured worker
// count and records the trajectory figures. Above one worker it first
// runs a Workers=1 pass as the speedup baseline; the equivalence suite
// guarantees both runs produce identical tables. At one worker that pass
// would repeat the same configuration, so it is skipped.
func writeSweepJSON(cfg experiments.Config, path string) error {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Build the catalog before timing, so the record counts the sweep
	// alone: at one worker no serial pass runs first to absorb it.
	app.Catalog()

	var serialWall time.Duration
	if workers > 1 {
		serialCfg := cfg
		serialCfg.Workers = 1
		var err error
		if _, serialWall, _, err = runSweep(serialCfg); err != nil {
			return err
		}
	}

	parCfg := cfg
	parCfg.Workers = workers
	f, wall, mallocs, err := runSweep(parCfg)
	if err != nil {
		return err
	}
	dicerWall, dicerMallocs, err := runDicerSweep(parCfg)
	if err != nil {
		return err
	}

	apps := len(app.Names())
	const policies = 2 // UM and CT

	// Steps actually driven: each (HP, BE) pair under each policy for the
	// sweep horizon, plus one full-horizon alone run per catalog app.
	pairSteps := int64(apps*apps) * int64(cfg.SweepHorizonPeriods*cfg.StepsPerPeriod)
	aloneSteps := int64(apps) * int64(cfg.HorizonPeriods*cfg.StepsPerPeriod)
	steps := policies*pairSteps + aloneSteps
	dicerSteps := pairSteps + aloneSteps

	rec := sweepRecord{
		Benchmark:          "sweep59x59",
		Workloads:          apps * apps,
		Steps:              steps,
		WallSeconds:        wall.Seconds(),
		NsPerStep:          float64(wall.Nanoseconds()) / float64(steps),
		AllocsPerStep:      float64(mallocs) / float64(steps),
		UMCDF11Pct:         f.UMCDF[1],
		CTCDF11Pct:         f.CTCDF[1],
		Workers:            workers,
		DicerSteps:         dicerSteps,
		DicerWallSeconds:   dicerWall.Seconds(),
		DicerNsPerStep:     float64(dicerWall.Nanoseconds()) / float64(dicerSteps),
		DicerAllocsPerStep: float64(dicerMallocs) / float64(dicerSteps),
	}
	if serialWall > 0 {
		rec.SerialWallSeconds = serialWall.Seconds()
		rec.SpeedupVsSerial = serialWall.Seconds() / wall.Seconds()
		rec.ParallelEfficiency = rec.SpeedupVsSerial / float64(workers)
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep: %d workloads, %d steps, %.2f s wall at %d workers, %.0f ns/step, %.2f allocs/step\n",
		rec.Workloads, rec.Steps, rec.WallSeconds, rec.Workers, rec.NsPerStep, rec.AllocsPerStep)
	if serialWall > 0 {
		fmt.Printf("serial pass: %.2f s wall, speedup %.2f, efficiency %.2f\n",
			rec.SerialWallSeconds, rec.SpeedupVsSerial, rec.ParallelEfficiency)
	}
	fmt.Printf("dicer sweep: %d steps, %.2f s wall, %.0f ns/step, %.2f allocs/step\nwrote %s\n",
		rec.DicerSteps, rec.DicerWallSeconds, rec.DicerNsPerStep, rec.DicerAllocsPerStep, path)
	return nil
}
