// dicer-bench regenerates the tables and figures of the DICER paper's
// evaluation on the simulated platform.
//
// Usage:
//
//	dicer-bench -fig all            # everything (slow: full 59x59 sweep)
//	dicer-bench -fig 1              # Figure 1 only
//	dicer-bench -fig headline       # the paper's headline claims
//	dicer-bench -fig 3 -hp milc1 -be gcc_base1
//	dicer-bench -fig 5 -csv out/    # also write CSV files
//	dicer-bench -fig 1 -cpuprofile cpu.pprof   # profile the sweep
//	dicer-bench -sweepjson BENCH_sweep.json    # perf-trajectory record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dicer/internal/experiments"
	"dicer/internal/report"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "which figure to regenerate: table1, 1-8, headline, sensitivity, ablation, all")
		hp         = flag.String("hp", "milc1", "HP application for -fig 3")
		be         = flag.String("be", "gcc_base1", "BE application for -fig 3")
		bes        = flag.Int("bes", 9, "number of co-located BE instances")
		csvDir     = flag.String("csv", "", "directory to also write CSV files into")
		jsonDir    = flag.String("json", "", "directory to also write JSON files into")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = all cores)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		sweepJSON  = flag.String("sweepjson", "", "measure the uncached 59x59 sweep and the DICER sweep over the same pairs and write {wall, ns/step, allocs/step, and above one worker parallel efficiency} JSON to this file, then exit")
		fleetJSON  = flag.String("fleetjson", "", "measure the fleet benchmarks (1000-node scale run + scheduler comparison) and write {wall, ns/node-period, real_time_factor, EFU} JSON to this file, then exit")
		fleetGrid  = flag.Bool("fleetgrid", false, "run the fleet control grid (static/migrate/autoscale/both x node chaos) and render the table, then exit")
		forensics  = flag.Bool("forensics", false, "with -fleetjson: arm the flight recorder during the timed 1000-node run (recorder overhead must fit inside the -against gate)")
		hypoJSON   = flag.String("hypojson", "", "run the hypothesis registry with a reduced seed set and write {wall, s/cell, statuses} JSON to this file, then exit")
		hypoSeeds  = flag.Int("hyposeeds", 2, "seeds per hypothesis for -hypojson")
		against    = flag.String("against", "", "with -sweepjson or -fleetjson: compare the fresh record against this committed record and exit non-zero on regression")
		regressPct = flag.Float64("regress-pct", 15, "with -against: tolerated regression in percent (ns_per_step / allocs_per_step and their dicer_ counterparts, or ns_per_node_period)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	cfg.Workers = *workers

	if *sweepJSON != "" {
		if err := writeSweepJSON(cfg, *sweepJSON); err != nil {
			fatal(err)
		}
		if *against != "" {
			if err := checkRegression(sweepGate, *sweepJSON, *against, *regressPct); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *hypoJSON != "" {
		if err := writeHypoJSON(cfg, *hypoJSON, *hypoSeeds); err != nil {
			fatal(err)
		}
		return
	}
	if *fleetJSON != "" {
		if err := writeFleetJSON(cfg, *fleetJSON, *forensics); err != nil {
			fatal(err)
		}
		if *against != "" {
			if err := checkRegression(fleetGate, *fleetJSON, *against, *regressPct); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *fleetGrid {
		if err := writeFleetGrid(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("platform: %s\n\n", experiments.MachineSummary(cfg.Machine))

	emit := func(name string, t *report.Table) {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fatal(err)
			}
			body, err := t.JSON()
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*jsonDir, name+".json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	want := func(name string) bool {
		return *fig == "all" || strings.EqualFold(*fig, name)
	}

	if want("table1") {
		emit("table1", suite.Table1())
	}
	if want("1") {
		f, err := suite.Figure1(*bes)
		if err != nil {
			fatal(err)
		}
		emit("figure1", f.Table())
	}
	if want("2") {
		f, err := suite.Figure2()
		if err != nil {
			fatal(err)
		}
		emit("figure2", f.Table())
	}
	if want("3") {
		f, err := suite.Figure3(*hp, *be, *bes)
		if err != nil {
			fatal(err)
		}
		emit("figure3", f.Table())
	}
	if want("4") {
		f, err := suite.Figure4(*bes)
		if err != nil {
			fatal(err)
		}
		emit("figure4", f.Table())
	}
	if want("5") {
		f, err := suite.Figure5(*bes)
		if err != nil {
			fatal(err)
		}
		emit("figure5", f.Table())
	}
	if want("sensitivity") {
		for _, sweep := range []struct {
			name string
			run  func(int) (experiments.SensitivityResult, error)
		}{
			{"sensitivity_bw", suite.SensitivityBWThreshold},
			{"sensitivity_alpha", suite.SensitivityAlpha},
			{"sensitivity_phase", suite.SensitivityPhaseThreshold},
			{"sensitivity_step", suite.SensitivitySampleStep},
		} {
			r, err := sweep.run(*bes)
			if err != nil {
				fatal(err)
			}
			emit(sweep.name, r.Table())
		}
	}
	if want("ablation") {
		r, err := suite.Ablations(*bes)
		if err != nil {
			fatal(err)
		}
		emit("ablation", r.Table())
	}
	if want("6") || want("7") || want("8") || want("headline") {
		grid, err := suite.GridFor(*bes)
		if err != nil {
			fatal(err)
		}
		if want("6") {
			emit("figure6", grid.Figure6().Table())
		}
		if want("7") {
			for i, t := range grid.Figure7().Tables() {
				emit(fmt.Sprintf("figure7_slo%d", i), t)
			}
		}
		if want("8") {
			for i, t := range grid.Figure8().Tables() {
				emit(fmt.Sprintf("figure8_%d", i), t)
			}
		}
		if want("headline") {
			emit("headline", grid.Headline(cfg.Machine.Cores).Table())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dicer-bench:", err)
	os.Exit(1)
}

// gate names what a bench record's regression check reads: fields, by
// JSON name, that fail more than the tolerated percentage above the
// committed record, and floor, a field whose fresh value must stay at
// least 1 ("" for none).
type gate struct {
	bench  string
	fields []string
	floor  string
}

var (
	// sweepGate holds the sweep's time and allocations per step, over
	// the paper's pairs and the DICER sweep. The CDF shape is pinned
	// exactly by the golden tests, so only the trajectory is gated.
	sweepGate = gate{bench: "sweep", fields: []string{
		"ns_per_step", "allocs_per_step", "dicer_ns_per_step", "dicer_allocs_per_step"}}
	// fleetGate holds the 1000-node run's cost per node-period, and
	// fails a simulator that falls behind real time. Quality figures are
	// pinned by the golden and hypothesis suites.
	fleetGate = gate{bench: "fleet", fields: []string{"ns_per_node_period"}, floor: "real_time_factor"}
)

// checkRegression compares the freshly written record at freshPath
// against the committed record at againstPath under g. Records measured
// at different worker counts, or lacking a field the gate reads, are
// refused rather than compared; improvements are not gated.
func checkRegression(g gate, freshPath, againstPath string, pct float64) error {
	need := append([]string{"workers"}, g.fields...)
	committed, err := readRecord(againstPath, need)
	if err != nil {
		return err
	}
	if g.floor != "" {
		need = append(need, g.floor)
	}
	fresh, err := readRecord(freshPath, need)
	if err != nil {
		return err
	}
	if w := int(committed["workers"]); int(fresh["workers"]) != w {
		return fmt.Errorf("%s bench: %s ran %d workers but %s was recorded at %d; rerun with -workers %d",
			g.bench, freshPath, int(fresh["workers"]), againstPath, w, w)
	}
	limit := 1 + pct/100
	fail := false
	for _, name := range g.fields {
		f, c := fresh[name], committed[name]
		status := "ok"
		if c > 0 && f > c*limit {
			status = "REGRESSION"
			fail = true
		}
		fmt.Printf("regress-check %-22s fresh %12.4f  committed %12.4f  (%+6.1f%%)  %s\n",
			name, f, c, 100*(f/c-1), status)
	}
	if g.floor != "" && fresh[g.floor] < 1 {
		fmt.Printf("regress-check %-22s fresh %12.4f  (must stay above 1)  REGRESSION\n", g.floor, fresh[g.floor])
		fail = true
	}
	if fail {
		return fmt.Errorf("%s bench regressed more than %.0f%% vs %s", g.bench, pct, againstPath)
	}
	return nil
}

// readRecord reads a bench record's numeric fields by JSON name and
// refuses a record without one of need: a missing field would read 0,
// and a gate comparing 0 passes.
func readRecord(path string, need []string) (map[string]float64, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	rec := make(map[string]float64, len(raw))
	for k, v := range raw {
		if x, ok := v.(float64); ok {
			rec[k] = x
		}
	}
	for _, name := range need {
		if _, ok := rec[name]; !ok {
			return nil, fmt.Errorf("%s has no numeric field %q", path, name)
		}
	}
	return rec, nil
}
