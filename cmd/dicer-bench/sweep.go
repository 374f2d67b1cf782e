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
// The headline wall/ns/allocs figures come from the parallel run (the
// engine's production configuration); the serial re-run exists to expose
// the executor's speedup and parallel efficiency (speedup ÷ workers).
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
	SerialWallSeconds  float64 `json:"serial_wall_seconds"`
	SpeedupVsSerial    float64 `json:"speedup_vs_serial"`
	ParallelEfficiency float64 `json:"parallel_efficiency"`
}

// runSweep executes the full 59×59 baseline sweep (Figure 1) on a fresh
// suite — nothing memoised, every cell simulated — and returns the
// figure, wall time, and the allocation count over the run.
func runSweep(cfg experiments.Config) (experiments.Figure1Result, time.Duration, uint64, error) {
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return experiments.Figure1Result{}, 0, 0, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	f, err := suite.Figure1(cfg.Machine.Cores - 1)
	if err != nil {
		return experiments.Figure1Result{}, 0, 0, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	return f, wall, msAfter.Mallocs - msBefore.Mallocs, nil
}

// writeSweepJSON measures the uncached sweep twice — Workers=1, then the
// configured parallel worker count — and records the trajectory figures.
// The equivalence suite guarantees both runs produce identical tables, so
// the serial pass is purely a speedup baseline.
func writeSweepJSON(cfg experiments.Config, path string) error {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	serialCfg := cfg
	serialCfg.Workers = 1
	_, serialWall, _, err := runSweep(serialCfg)
	if err != nil {
		return err
	}

	parCfg := cfg
	parCfg.Workers = workers
	f, wall, mallocs, err := runSweep(parCfg)
	if err != nil {
		return err
	}

	apps := len(app.Names())
	const policies = 2 // UM and CT

	// Steps actually driven: each (HP, BE) pair under each policy for the
	// sweep horizon, plus one full-horizon alone run per catalog app.
	steps := int64(apps*apps*policies)*int64(cfg.SweepHorizonPeriods*cfg.StepsPerPeriod) +
		int64(apps)*int64(cfg.HorizonPeriods*cfg.StepsPerPeriod)

	speedup := serialWall.Seconds() / wall.Seconds()
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
		SerialWallSeconds:  serialWall.Seconds(),
		SpeedupVsSerial:    speedup,
		ParallelEfficiency: speedup / float64(workers),
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep: %d workloads, %d steps, %.2f s wall (serial %.2f s, %d workers, efficiency %.2f), %.0f ns/step, %.2f allocs/step\nwrote %s\n",
		rec.Workloads, rec.Steps, rec.WallSeconds, rec.SerialWallSeconds, rec.Workers,
		rec.ParallelEfficiency, rec.NsPerStep, rec.AllocsPerStep, path)
	return nil
}

// checkSweepRegression compares the freshly written record at freshPath
// against the committed record at againstPath and fails when ns_per_step
// or allocs_per_step regresses by more than pct percent. Records
// measured at different worker counts are refused rather than compared.
// Improvements and the CDF shape are not gated here (the CDF is pinned
// exactly by the golden tests); this gate enforces the perf trajectory
// only.
func checkSweepRegression(freshPath, againstPath string, pct float64) error {
	read := func(path string) (sweepRecord, error) {
		var r sweepRecord
		body, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(body, &r)
	}
	fresh, err := read(freshPath)
	if err != nil {
		return err
	}
	committed, err := read(againstPath)
	if err != nil {
		return err
	}
	if fresh.Workers != committed.Workers {
		return fmt.Errorf("sweep bench: %s ran %d workers but %s was recorded at %d; rerun with -workers %d",
			freshPath, fresh.Workers, againstPath, committed.Workers, committed.Workers)
	}
	limit := 1 + pct/100
	fail := false
	report := func(name string, fresh, committed float64) {
		status := "ok"
		if committed > 0 && fresh > committed*limit {
			status = "REGRESSION"
			fail = true
		}
		fmt.Printf("regress-check %-16s fresh %10.4f  committed %10.4f  (%+6.1f%%)  %s\n",
			name, fresh, committed, 100*(fresh/committed-1), status)
	}
	report("ns_per_step", fresh.NsPerStep, committed.NsPerStep)
	report("allocs_per_step", fresh.AllocsPerStep, committed.AllocsPerStep)
	if fail {
		return fmt.Errorf("sweep regressed more than %.0f%% vs %s", pct, againstPath)
	}
	return nil
}
