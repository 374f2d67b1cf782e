package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dicer/internal/hypo"
)

// Golden FINDINGS reports: every registered hypothesis runs end-to-end
// at a reduced seed set and horizon, and the full multi-report stream is
// compared byte-for-byte. Regenerate after an intentional change with:
//
//	go test ./cmd/dicer-hypo -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files with current output")

// smokeOpts is the reduced configuration the goldens (and the CI
// hypo-smoke job) run: 3 seeds, 40-period horizons.
func smokeOpts() options {
	return options{run: "all", seeds: 3, periods: 40, workers: 2}
}

func runToString(t *testing.T, opts options) string {
	t.Helper()
	var b strings.Builder
	if err := runHypotheses(opts, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

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

func TestGoldenFindings(t *testing.T) {
	checkGolden(t, "findings_smoke", runToString(t, smokeOpts()))
}

// TestByteDeterminism runs the full reduced registry twice and demands
// identical bytes — the harness's core reproducibility contract, across
// parallel fleet cells, soak scheduling and report rendering.
func TestByteDeterminism(t *testing.T) {
	a := runToString(t, smokeOpts())
	b := runToString(t, smokeOpts())
	if a != b {
		t.Fatal("two identical runs produced different report bytes")
	}
}

// TestOutDirWritesReports checks the -out/-json path: one file pair per
// hypothesis, contents matching the stdout stream.
func TestOutDirWritesReports(t *testing.T) {
	dir := t.TempDir()
	opts := smokeOpts()
	opts.run = "headroom-beats-random"
	opts.outDir = dir
	opts.json = true
	out := runToString(t, opts)

	md, err := os.ReadFile(filepath.Join(dir, "headroom-beats-random.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(md) != out {
		t.Error("written markdown differs from the stdout stream")
	}
	body, err := os.ReadFile(filepath.Join(dir, "headroom-beats-random.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "headroom-beats-random"`, `"status"`, `"trajectory"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
}

func TestSelectHypotheses(t *testing.T) {
	all, err := selectHypotheses("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(hypo.Registered()) {
		t.Fatalf("all selected %d, registry has %d", len(all), len(hypo.Registered()))
	}
	two, err := selectHypotheses("headroom-beats-random, chaos-soak-degradation-bound")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "headroom-beats-random" {
		t.Fatalf("unexpected selection: %+v", two)
	}
	if _, err := selectHypotheses("nope"); err == nil {
		t.Fatal("unknown hypothesis accepted")
	}
}

func TestApplyOverrides(t *testing.T) {
	h, err := hypo.ByName("headroom-beats-random")
	if err != nil {
		t.Fatal(err)
	}
	got := applyOverrides(h, options{seeds: 3, periods: 40})
	if len(got.Seeds) != 3 {
		t.Fatalf("seeds = %v", got.Seeds)
	}
	for _, c := range got.Configs {
		if c.Fleet.HorizonPeriods != 40 {
			t.Fatalf("config %s horizon = %d", c.Name, c.Fleet.HorizonPeriods)
		}
	}
	// The override must not mutate the registry's copy.
	if h.Configs[0].Fleet.HorizonPeriods == 40 {
		t.Fatal("applyOverrides mutated the input hypothesis")
	}
}
