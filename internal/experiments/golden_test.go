package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dicer/internal/chaos"
	"dicer/internal/machine"
)

// Golden-file tests for the report renderers in render.go: each renderer
// is fed a small fixed fixture and its output compared byte-for-byte
// against testdata/*.golden. Regenerate after an intentional format
// change with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files with current renderer output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden file (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	s, err := NewSuite(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", s.Table1().String())
}

func TestGoldenFigure1(t *testing.T) {
	r := Figure1Result{
		BECount: 9, N: 3,
		Ticks: []float64{1.0, 1.5, 2.0},
		UMCDF: []float64{0, 33.3, 100},
		CTCDF: []float64{33.3, 100, 100},
	}
	checkGolden(t, "figure1", r.Table().String())
}

func TestGoldenFigure2(t *testing.T) {
	r := Figure2Result{
		Ways:    4,
		Targets: []float64{0.90, 0.95, 0.99},
		CDF: [][]float64{
			{25, 50, 75, 100},
			{10, 40, 70, 100},
			{0, 20, 60, 100},
		},
	}
	checkGolden(t, "figure2", r.Table().String())
}

func TestGoldenFigure3(t *testing.T) {
	r := Figure3Result{
		HP: "milc1", BE: "gcc_base1", BECount: 9,
		HPWays:   []int{1, 2, 3},
		Slowdown: []float64{1.42, 1.19, 1.11},
		UM:       1.31, BestWays: 3, BestValue: 1.11,
	}
	checkGolden(t, "figure3", r.Table().String())
}

func TestGoldenFigure4(t *testing.T) {
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	r := Figure4Result{
		BECount: 9,
		Points: []Fig4Point{
			{Workload: w, Class: CTFavoured, Policy: UM, Slowdown: 1.35, EFU: 0.71},
			{Workload: w, Class: CTFavoured, Policy: CT, Slowdown: 1.08, EFU: 0.42},
		},
	}
	checkGolden(t, "figure4", r.Table().String())
}

func TestGoldenFigure5(t *testing.T) {
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	r := Figure5Result{
		BECount: 9,
		Rows: []Fig5Row{{
			Workload: w, Class: CTFavoured,
			HPNorm: map[PolicyName]float64{UM: 0.74, CT: 0.93, DICER: 0.91},
			BENorm: map[PolicyName]float64{UM: 0.81, CT: 0.33, DICER: 0.65},
		}},
	}
	checkGolden(t, "figure5", r.Table().String())
}

func TestGoldenFigure6(t *testing.T) {
	r := Figure6Result{
		CoreCounts: []int{4, 7, 10},
		EFU: map[PolicyName][]float64{
			UM:    {0.81, 0.66, 0.52},
			CT:    {0.55, 0.48, 0.41},
			DICER: {0.83, 0.72, 0.61},
		},
	}
	checkGolden(t, "figure6", r.Table().String())
}

func TestGoldenFigure7(t *testing.T) {
	r := Figure7Result{
		CoreCounts: []int{4, 10},
		SLOs:       []float64{0.80, 0.90},
		Achieved: map[float64]map[PolicyName][]float64{
			0.80: {UM: {70, 40}, CT: {85, 75}, DICER: {98, 92}},
			0.90: {UM: {55, 25}, CT: {72, 60}, DICER: {90, 74}},
		},
	}
	var out string
	for _, tbl := range r.Tables() {
		out += tbl.String() + "\n"
	}
	checkGolden(t, "figure7", out)
}

func TestGoldenFigure8(t *testing.T) {
	r := Figure8Result{
		CoreCounts: []int{4, 10},
		SLOs:       []float64{0.90},
		Lambdas:    []float64{1},
		SUCI: map[float64]map[float64]map[PolicyName][]float64{
			1: {0.90: {UM: {0.41, 0.12}, CT: {0.38, 0.27}, DICER: {0.66, 0.48}}},
		},
	}
	var out string
	for _, tbl := range r.Tables() {
		out += tbl.String() + "\n"
	}
	checkGolden(t, "figure8", out)
}

func TestGoldenHeadline(t *testing.T) {
	r := HeadlineResult{
		BECount:  9,
		PctSLO80: 93.2, PctSLO90: 74.6,
		GeoMeanEFU: 0.58, MeanEFU: 0.61,
	}
	checkGolden(t, "headline", r.Table().String())
}

func TestGoldenMachineSummary(t *testing.T) {
	checkGolden(t, "machine_summary", MachineSummary(machine.Default())+"\n")
}

func TestGoldenSoakTable(t *testing.T) {
	r := &SoakResult{
		MaxHPDegradation: 0.35,
		Runs: []SoakRun{{
			Workload: Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
			Schedule: "storm", Seed: 7,
			HPIPC: 0.642, FaultFreeHPIPC: 0.661, Degradation: 0.0287,
			Stats: chaos.Stats{
				Reads: 61, Dropouts: 3, FrozenReads: 8, JitteredReads: 49,
				Writes: 105, WritesRejected: 12, WritesDelayed: 15,
			},
		}},
	}
	checkGolden(t, "soak", r.Table().String())
}

// TestGoldenExtensions pins the §6 extension comparison value for value:
// every variant's HP norm and EFU on every bandwidth-heavy workload, at
// full precision.
func TestGoldenExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	r, err := suite(t).Extensions(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for vi, name := range r.Names {
		for wi, w := range r.Workloads {
			fmt.Fprintf(&b, "%s %s hp_norm=%s efu=%s\n", name, w,
				strconv.FormatFloat(r.HPNorm[vi][wi], 'g', -1, 64),
				strconv.FormatFloat(r.EFU[vi][wi], 'g', -1, 64))
		}
	}
	checkGolden(t, "extensions", b.String())
}
