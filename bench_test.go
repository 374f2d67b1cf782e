// Benchmark harness: one benchmark per table and figure of the DICER
// paper's evaluation. Each benchmark drives the corresponding experiment
// on the simulated platform with the paper's full configuration (Table 1)
// and prints the regenerated rows/series once, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation section. Results are memoised inside a
// shared Suite, so the reported per-iteration times after the first
// iteration reflect lookup cost; the interesting output is the tables.
// EXPERIMENTS.md records the paper-vs-measured comparison for every entry.
package dicer_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"dicer"
	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/ext"
	"dicer/internal/machine"
	"dicer/internal/mrc"
	"dicer/internal/policy"
	"dicer/internal/report"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	gridOnce  sync.Once
	grid      *experiments.Grid

	printOnce sync.Map // benchmark name -> *sync.Once
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		s, err := experiments.NewSuite(experiments.DefaultConfig())
		if err != nil {
			panic(err)
		}
		suite = s
	})
	return suite
}

func benchGrid(b *testing.B) *experiments.Grid {
	b.Helper()
	s := benchSuite(b)
	gridOnce.Do(func() {
		g, err := s.GridFor(9)
		if err != nil {
			panic(err)
		}
		grid = g
	})
	return grid
}

// printTables emits the given tables exactly once per benchmark name.
func printTables(name string, tables ...*report.Table) {
	onceIface, _ := printOnce.LoadOrStore(name, &sync.Once{})
	onceIface.(*sync.Once).Do(func() {
		fmt.Printf("\n===== %s =====\n", name)
		for _, t := range tables {
			_ = t.Render(os.Stdout)
			fmt.Println()
		}
	})
}

// BenchmarkControllerObserve measures one full monitoring period of the
// DICER control loop on the paper's platform — simulator steps, counter
// sampling and the controller decision — i.e. the per-period overhead a
// deployment pays. The alloc guard in internal/core/alloc_test.go pins
// the controller's own share of that to zero allocations.
func BenchmarkControllerObserve(b *testing.B) {
	m := machine.Default()
	r, err := sim.New(m, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Attach(0, policy.HPClos, app.MustByName("omnetpp1")); err != nil {
		b.Fatal(err)
	}
	for c := 1; c <= 9; c++ {
		if err := r.Attach(c, policy.BEClos, app.MustByName("gcc_base1")); err != nil {
			b.Fatal(err)
		}
	}
	emu := resctrl.NewEmu(r, false)
	ctl := core.MustNew(core.DefaultConfig())
	if err := ctl.Setup(emu); err != nil {
		b.Fatal(err)
	}
	meter := resctrl.NewMeter(emu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 4; s++ {
			r.Step(0.25)
		}
		if err := ctl.Observe(emu, meter.Sample()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Config(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		printTables("Table 1", s.Table1())
	}
}

func BenchmarkFigure1_SlowdownCDF(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure1(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 1", f.Table())
		b.ReportMetric(f.UMCDF[1], "umCDF@1.1x_%")
		b.ReportMetric(f.CTCDF[1], "ctCDF@1.1x_%")
	}
}

// BenchmarkSweep59x59 is the perf-trajectory headline: the full 3481-cell
// baseline sweep (UM + CT over the whole catalog) on a FRESH suite each
// iteration, so nothing is served from the memo cache — every cell
// simulates. BENCH_sweep.json (emitted by cmd/dicer-bench -sweepjson)
// tracks this number across PRs.
func BenchmarkSweep59x59(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSuite(experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		f, err := s.Figure1(9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.UMCDF[1], "umCDF@1.1x_%")
	}
}

// BenchmarkSweep59x59Parallel is the same fresh-suite sweep with the
// sharded executor explicitly bounded to every core (the equivalence
// suite guarantees the output is byte-identical to Workers=1). Together
// with BenchmarkSweep59x59 it exposes the parallel speedup; ns/op ÷
// (serial ns/op ÷ GOMAXPROCS) is the executor's parallel efficiency.
func BenchmarkSweep59x59Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig()
		cfg.Workers = runtime.GOMAXPROCS(0)
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f, err := s.Figure1(9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.UMCDF[1], "umCDF@1.1x_%")
	}
}

func BenchmarkFigure2_WaysCDF(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 2", f.Table())
		b.ReportMetric(f.CDF[2][5], "apps99pct@6ways_%")
	}
}

func BenchmarkFigure3_StaticSweep(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure3("milc1", "gcc_base1", 9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 3", f.Table())
		b.ReportMetric(float64(f.BestWays), "bestHPWays")
		b.ReportMetric(f.Slowdown[len(f.Slowdown)-1], "ctSlowdown")
	}
}

func BenchmarkFigure4_EFUScatter(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure4(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 4", f.Table())
	}
}

func BenchmarkFigure5_PerWorkload(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure5(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 5", f.Table())
	}
}

func BenchmarkFigure6_EFUvsCores(b *testing.B) {
	g := benchGrid(b)
	for i := 0; i < b.N; i++ {
		f := g.Figure6()
		printTables("Figure 6", f.Table())
		last := len(f.CoreCounts) - 1
		b.ReportMetric(f.EFU[experiments.UM][last], "umEFU@10cores")
		b.ReportMetric(f.EFU[experiments.CT][last], "ctEFU@10cores")
		b.ReportMetric(f.EFU[experiments.DICER][last], "dicerEFU@10cores")
	}
}

func BenchmarkFigure7_SLOConformance(b *testing.B) {
	g := benchGrid(b)
	for i := 0; i < b.N; i++ {
		f := g.Figure7()
		printTables("Figure 7", f.Tables()...)
		last := len(f.CoreCounts) - 1
		b.ReportMetric(f.Achieved[0.90][experiments.DICER][last], "dicerSLO90@10cores_%")
	}
}

func BenchmarkFigure8_SUCI(b *testing.B) {
	g := benchGrid(b)
	for i := 0; i < b.N; i++ {
		f := g.Figure8()
		printTables("Figure 8", f.Tables()...)
		last := len(f.CoreCounts) - 1
		b.ReportMetric(f.SUCI[1][0.90][experiments.DICER][last], "dicerSUCI90@10cores")
	}
}

func BenchmarkHeadline_Claims(b *testing.B) {
	g := benchGrid(b)
	for i := 0; i < b.N; i++ {
		h := g.Headline(10)
		printTables("Headline", h.Table())
		b.ReportMetric(h.PctSLO80, "slo80_%")
		b.ReportMetric(h.PctSLO90, "slo90_%")
		b.ReportMetric(h.GeoMeanEFU, "geomeanEFU")
	}
}

// ---------------------------------------------------------------------------
// Ablation and extension benches (DESIGN.md: design choices under test).

// runScenario executes one scenario and returns (HP norm, EFU).
func runScenario(b *testing.B, hp, be string, n int, pol dicer.Policy, mba bool) (float64, float64) {
	b.Helper()
	sc := dicer.NewScenario(hp, be, n)
	sc.WithMBA = mba
	res, err := sc.Run(pol)
	if err != nil {
		b.Fatal(err)
	}
	return res.HPNorm(), res.EFU()
}

// BenchmarkAblation_SaturationHandling removes DICER's bandwidth-saturation
// sampling (≈ the DCP-QoS scheme the paper cites) and measures what it
// costs on the paper's canonical CT-Thwarted pair.
func BenchmarkAblation_SaturationHandling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full, _ := runScenario(b, "milc1", "gcc_base1", 9, dicer.NewDICER(), false)
		cfg := core.DefaultConfig()
		cfg.DisableSaturationHandling = true
		ablated, _ := runScenario(b, "milc1", "gcc_base1", 9, core.MustNew(cfg), false)
		printTables("Ablation: saturation handling",
			ablationTable("milc1 + 9x gcc_base1 (CT-T)", "HP norm IPC", full, ablated))
		b.ReportMetric(full, "hpNorm_full")
		b.ReportMetric(ablated, "hpNorm_noSaturation")
	}
}

// BenchmarkAblation_PhaseDetection removes Eq. 2 and measures the effect on
// a phase-changing HP.
func BenchmarkAblation_PhaseDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full, _ := runScenario(b, "Xalan1", "bzip21", 9, dicer.NewDICER(), false)
		cfg := core.DefaultConfig()
		cfg.DisablePhaseDetection = true
		ablated, _ := runScenario(b, "Xalan1", "bzip21", 9, core.MustNew(cfg), false)
		printTables("Ablation: phase detection",
			ablationTable("Xalan1 + 9x bzip21 (phased HP)", "HP norm IPC", full, ablated))
		b.ReportMetric(full, "hpNorm_full")
		b.ReportMetric(ablated, "hpNorm_noPhaseDetect")
	}
}

// BenchmarkExtension_MBA measures the §6 MBA extension against plain DICER
// on a bandwidth-dominated workload.
func BenchmarkExtension_MBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, _ := runScenario(b, "lbm1", "libquantum1", 9, dicer.NewDICER(), false)
		cfg := core.DefaultConfig()
		mba, err := ext.NewDicerMBA(cfg)
		if err != nil {
			b.Fatal(err)
		}
		withMBA, _ := runScenario(b, "lbm1", "libquantum1", 9, mba, true)
		printTables("Extension: DICER+MBA",
			ablationTable("lbm1 + 9x libquantum1 (bandwidth-bound)", "HP norm IPC", withMBA, plain))
		b.ReportMetric(plain, "hpNorm_dicer")
		b.ReportMetric(withMBA, "hpNorm_dicerMBA")
	}
}

// BenchmarkExtension_Overlap compares an overlapping partition against the
// disjoint partition with the same HP reach (§6's open question).
func BenchmarkExtension_Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, strictEFU := runScenario(b, "namd1", "omnetpp1", 5, dicer.StaticPartition(10), false)
		_, overlapEFU := runScenario(b, "namd1", "omnetpp1", 5,
			ext.OverlapStatic{HPExclusive: 4, OverlapWays: 6}, false)
		printTables("Extension: overlapping partitions",
			ablationTable("namd1 + 5x omnetpp1", "EFU", overlapEFU, strictEFU))
		b.ReportMetric(strictEFU, "efu_disjoint")
		b.ReportMetric(overlapEFU, "efu_overlap")
	}
}

func ablationTable(workload, metric string, full, ablated float64) *report.Table {
	t := report.NewTable(workload, "Variant", metric)
	t.AddRowf("full mechanism", full)
	t.AddRowf("ablated / baseline", ablated)
	return t
}

// ---------------------------------------------------------------------------
// Sensitivity sweeps (reconstructing the analysis §4.1 mentions but omits)
// and the sample-wide ablation comparison.

func BenchmarkSensitivity_BWThreshold(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.SensitivityBWThreshold(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Sensitivity: MemBW_threshold", r.Table())
	}
}

func BenchmarkSensitivity_Alpha(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.SensitivityAlpha(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Sensitivity: stability a", r.Table())
	}
}

func BenchmarkSensitivity_PhaseThreshold(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.SensitivityPhaseThreshold(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Sensitivity: phase_threshold", r.Table())
	}
}

func BenchmarkSensitivity_SampleStep(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.SensitivitySampleStep(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Sensitivity: sample step", r.Table())
	}
}

func BenchmarkAblation_Sample(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Ablations(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Ablation: variants over sample", r.Table())
	}
}

func BenchmarkExtension_Sample(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Extensions(9, 6)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Extensions over bandwidth-heavy workloads", r.Table())
	}
}

// BenchmarkValidation_MRC compares the analytic miss-ratio model against
// the trace-driven LRU simulator on mixtures spanning the catalog's
// behaviour classes (the analytic curves are what the system simulator
// runs on, so this is the substrate's ground-truth check).
func BenchmarkValidation_MRC(b *testing.B) {
	cfg := cache.Config{SizeBytes: 64 * 8 * 64, Ways: 8, LineBytes: 64, Clos: 1}
	for i := 0; i < b.N; i++ {
		t := report.NewTable("MRC validation: analytic vs trace-driven LRU (32 KiB, 8-way)",
			"Case", "MAE", "measured@full", "analytic@full")
		for _, vc := range mrc.DefaultValidationCases(cfg) {
			measured, analytic, mae, err := vc.Validate(cfg, 60000, 42)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRowf(vc.Name, mae, measured[cfg.Ways-1], analytic[cfg.Ways-1])
		}
		printTables("MRC validation", t)
	}
}

// BenchmarkComparison_Heracles pits DICER (fully transparent) against a
// simplified Heracles controller that is handed the HP's alone-run IPC and
// SLO target — the application-provided information the paper's design
// explicitly avoids depending on (§1, §5).
func BenchmarkComparison_Heracles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof, err := dicer.AppByName("omnetpp1")
		if err != nil {
			b.Fatal(err)
		}
		ref, err := dicer.AloneIPC(dicer.Machine{}, prof)
		if err != nil {
			b.Fatal(err)
		}
		h, err := ext.NewHeracles(ref, 0.90)
		if err != nil {
			b.Fatal(err)
		}
		hNorm, hEFU := runScenario(b, "omnetpp1", "gcc_base1", 9, h, false)
		dNorm, dEFU := runScenario(b, "omnetpp1", "gcc_base1", 9, dicer.NewDICER(), false)
		t := report.NewTable("omnetpp1 + 9x gcc_base1: transparency vs application-provided QoS",
			"Controller", "HP norm IPC", "EFU")
		t.AddRowf("Heracles (knows alone-IPC + SLO)", hNorm, hEFU)
		t.AddRowf("DICER (transparent)", dNorm, dEFU)
		printTables("Comparison: Heracles vs DICER", t)
		b.ReportMetric(hNorm, "hpNorm_heracles")
		b.ReportMetric(dNorm, "hpNorm_dicer")
		b.ReportMetric(hEFU, "efu_heracles")
		b.ReportMetric(dEFU, "efu_dicer")
	}
}

// BenchmarkFigure5_PaperPairs runs the workload pairs legible in the
// published Figure 5's axis labels and reports the panel-agreement score.
func BenchmarkFigure5_PaperPairs(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		f, err := s.Figure5Paper(9)
		if err != nil {
			b.Fatal(err)
		}
		printTables("Figure 5 (paper's named pairs)", f.Table())
		b.ReportMetric(f.AgreementPct(), "panelAgreement_%")
	}
}
