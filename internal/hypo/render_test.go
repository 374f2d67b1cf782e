package hypo

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dicer/internal/metrics"
)

// Golden-file tests for the FINDINGS renderers: a small fixed Result
// fixture is rendered and compared byte-for-byte against
// testdata/*.golden. Regenerate after an intentional format change with:
//
//	go test ./internal/hypo -run TestGolden -update

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

// fixtureResult builds a judged Result by hand: one confirmed primary,
// one inconclusive exploratory endpoint, deterministic numbers.
func fixtureResult() *Result {
	h := Hypothesis{
		Name:       "fixture",
		Title:      "Treatment beats control on the fixture metric",
		Family:     "Renderer fixture",
		Claim:      "The treatment holds a higher fleet EFU than the control.",
		Seeds:      []int64{42, 43, 44},
		Confidence: 0.95,
		Configs: []Config{
			{Name: "treatment", Fleet: &FleetSpec{Scheduler: "headroom", Policy: "DICER",
				HorizonPeriods: 40, Arrivals: consolidationArrivals()}},
			{Name: "control", Fleet: &FleetSpec{Scheduler: "random", Policy: "DICER",
				HorizonPeriods: 40, Arrivals: consolidationArrivals()}},
		},
		Comparisons: []Comparison{
			{Name: "fleet-efu", Metric: MetricFleetEFU, Treatment: "treatment",
				Control: "control", Direction: Greater, MinEffect: 0.01},
			{Name: "slo-rate", Metric: MetricSLOViolationRate, Treatment: "treatment",
				Control: "control", Direction: Less, MinEffect: 0.005, Exploratory: true},
		},
	}
	res := &Result{Hypothesis: h}
	res.Samples = []ConfigSamples{
		{Config: "treatment", Metrics: []MetricSeries{
			{Metric: MetricFleetEFU, Values: []float64{0.45, 0.47, 0.46}},
			{Metric: MetricSLOViolationRate, Values: []float64{0.27, 0.30, 0.28}},
		}},
		{Config: "control", Metrics: []MetricSeries{
			{Metric: MetricFleetEFU, Values: []float64{0.40, 0.41, 0.42}},
			{Metric: MetricSLOViolationRate, Values: []float64{0.29, 0.28, 0.30}},
		}},
	}
	for _, cmp := range h.Comparisons {
		treat, _ := res.series(cmp.Treatment, cmp.Metric)
		ctrl, _ := res.series(cmp.Control, cmp.Metric)
		diffs := PairedDiffs(treat, ctrl)
		v := Judge(diffs, cmp.Direction, cmp.MinEffect, h.Confidence)
		v.MeanTreat, v.MeanCtrl = metrics.Mean(treat), metrics.Mean(ctrl)
		res.Comparisons = append(res.Comparisons, ComparisonResult{
			Comparison: cmp, TreatmentValues: treat, ControlValues: ctrl,
			Diffs: diffs, Verdict: v,
		})
	}
	res.Status = rollup(res.Comparisons)
	return res
}

func TestGoldenMarkdown(t *testing.T) {
	checkGolden(t, "fixture_md", fixtureResult().Markdown())
}

func TestGoldenJSON(t *testing.T) {
	body, err := fixtureResult().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture_json", body)
}

// TestRenderDeterminism: two independent render passes over two
// independently built results are byte-identical.
func TestRenderDeterminism(t *testing.T) {
	a, b := fixtureResult(), fixtureResult()
	if a.Markdown() != b.Markdown() {
		t.Fatal("markdown rendering is not deterministic")
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if ja != jb {
		t.Fatal("JSON rendering is not deterministic")
	}
}
