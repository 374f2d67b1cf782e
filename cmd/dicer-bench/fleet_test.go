package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecord writes r as a bench record under dir and returns its path.
func writeRecord(t *testing.T, dir, name string, r any) string {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFleetRegressionRefusesWorkerMismatch pins the fleet gate's
// comparability rule: a fresh record measured at another worker count
// than the committed one is refused, naming both counts, even when its
// throughput would pass; equal counts are gated on ns_per_node_period.
func TestFleetRegressionRefusesWorkerMismatch(t *testing.T) {
	dir := t.TempDir()
	committed := writeRecord(t, dir, "committed.json",
		fleetRecord{Workers: 1, NsPerNodePeriod: 10000, RealTimeFactor: 100})

	fresh := writeRecord(t, dir, "fresh2.json",
		fleetRecord{Workers: 2, NsPerNodePeriod: 5000, RealTimeFactor: 200})
	err := checkFleetRegression(fresh, committed, 50)
	if err == nil {
		t.Fatal("records at 2 and 1 workers compared; want a refusal")
	}
	for _, want := range []string{"ran 2 workers", "recorded at 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q", err, want)
		}
	}

	fresh = writeRecord(t, dir, "fresh1.json",
		fleetRecord{Workers: 1, NsPerNodePeriod: 14000, RealTimeFactor: 70})
	if err := checkFleetRegression(fresh, committed, 50); err != nil {
		t.Fatalf("same workers within the band: %v", err)
	}
	slow := writeRecord(t, dir, "slow1.json",
		fleetRecord{Workers: 1, NsPerNodePeriod: 16000, RealTimeFactor: 60})
	if err := checkFleetRegression(slow, committed, 50); err == nil {
		t.Fatal("a 60% regression at equal workers passed the 50% gate")
	}
}

// TestSweepRegressionRefusesWorkerMismatch pins the same rule for the
// sweep gate: BENCH_sweep.json is a one-worker record, so a sweep run at
// another worker count is refused, naming both counts; equal counts are
// gated on ns_per_step.
func TestSweepRegressionRefusesWorkerMismatch(t *testing.T) {
	dir := t.TempDir()
	committed := writeRecord(t, dir, "committed.json",
		sweepRecord{Workers: 1, NsPerStep: 400, AllocsPerStep: 0.065})

	fresh := writeRecord(t, dir, "fresh2.json",
		sweepRecord{Workers: 2, NsPerStep: 250, AllocsPerStep: 0.065})
	err := checkSweepRegression(fresh, committed, 15)
	if err == nil {
		t.Fatal("records at 2 and 1 workers compared; want a refusal")
	}
	for _, want := range []string{"ran 2 workers", "recorded at 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q", err, want)
		}
	}

	fresh = writeRecord(t, dir, "fresh1.json",
		sweepRecord{Workers: 1, NsPerStep: 440, AllocsPerStep: 0.065})
	if err := checkSweepRegression(fresh, committed, 15); err != nil {
		t.Fatalf("same workers within the band: %v", err)
	}
	slow := writeRecord(t, dir, "slow1.json",
		sweepRecord{Workers: 1, NsPerStep: 480, AllocsPerStep: 0.065})
	if err := checkSweepRegression(slow, committed, 15); err == nil {
		t.Fatal("a 20% regression at equal workers passed the 15% gate")
	}
}
