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
	err := checkRegression(fleetGate, fresh, committed, 50)
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
	if err := checkRegression(fleetGate, fresh, committed, 50); err != nil {
		t.Fatalf("same workers within the band: %v", err)
	}
	slow := writeRecord(t, dir, "slow1.json",
		fleetRecord{Workers: 1, NsPerNodePeriod: 16000, RealTimeFactor: 60})
	if err := checkRegression(fleetGate, slow, committed, 50); err == nil {
		t.Fatal("a 60% regression at equal workers passed the 50% gate")
	}
}

// TestSweepRegressionRefusesWorkerMismatch pins the same rule for the
// sweep gate: BENCH_sweep.json is a one-worker record, so a sweep run at
// another worker count is refused, naming both counts; equal counts are
// gated on ns_per_step and allocs_per_step.
func TestSweepRegressionRefusesWorkerMismatch(t *testing.T) {
	dir := t.TempDir()
	committed := writeRecord(t, dir, "committed.json",
		sweepRecord{Workers: 1, NsPerStep: 400, AllocsPerStep: 0.065})

	fresh := writeRecord(t, dir, "fresh2.json",
		sweepRecord{Workers: 2, NsPerStep: 250, AllocsPerStep: 0.065})
	err := checkRegression(sweepGate, fresh, committed, 15)
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
	if err := checkRegression(sweepGate, fresh, committed, 15); err != nil {
		t.Fatalf("same workers within the band: %v", err)
	}
	slow := writeRecord(t, dir, "slow1.json",
		sweepRecord{Workers: 1, NsPerStep: 480, AllocsPerStep: 0.065})
	if err := checkRegression(sweepGate, slow, committed, 15); err == nil {
		t.Fatal("a 20% regression at equal workers passed the 15% gate")
	}
	heavy := writeRecord(t, dir, "heavy1.json",
		sweepRecord{Workers: 1, NsPerStep: 400, AllocsPerStep: 0.078})
	if err := checkRegression(sweepGate, heavy, committed, 15); err == nil {
		t.Fatal("allocs_per_step 20% worse at equal workers passed the 15% gate")
	}
}

// TestRegressionRefusesMissingField: a field a gate reads that is absent
// from a record would read 0 and pass, so each gate refuses a record
// without one, naming it; and full records of each gate's type compare,
// so every name a gate reads is a field of its record.
func TestRegressionRefusesMissingField(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		g   gate
		rec any
	}{
		{sweepGate, sweepRecord{Workers: 1, NsPerStep: 400, AllocsPerStep: 0.065, DicerNsPerStep: 700, DicerAllocsPerStep: 0.1}},
		{fleetGate, fleetRecord{Workers: 1, NsPerNodePeriod: 10000, RealTimeFactor: 100}},
	} {
		full := writeRecord(t, dir, "full.json", c.rec)
		if err := checkRegression(c.g, full, full, 15); err != nil {
			t.Fatalf("%s gate refused two full records: %v", c.g.bench, err)
		}
		body, err := json.Marshal(c.rec)
		if err != nil {
			t.Fatal(err)
		}
		names := append([]string{"workers"}, c.g.fields...)
		if c.g.floor != "" {
			names = append(names, c.g.floor)
		}
		for _, name := range names {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			delete(m, name)
			partial := writeRecord(t, dir, "partial.json", m)
			if err := checkRegression(c.g, partial, full, 15); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s gate, fresh record without %s: error %v, want a refusal naming it", c.g.bench, name, err)
			}
			if name == c.g.floor {
				continue // the floor is read from the fresh record only
			}
			if err := checkRegression(c.g, full, partial, 15); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s gate, committed record without %s: error %v, want a refusal naming it", c.g.bench, name, err)
			}
		}
	}
}

// TestSweepRegressionGatesDICER pins the DICER-sweep half of the sweep
// gate: at equal workers, a DICER figure 20% worse than the committed one
// fails the 15% gate, whether time or allocations, and 10% worse passes.
func TestSweepRegressionGatesDICER(t *testing.T) {
	dir := t.TempDir()
	base := sweepRecord{Workers: 1, NsPerStep: 400, AllocsPerStep: 0.065, DicerNsPerStep: 700, DicerAllocsPerStep: 0.1}
	committed := writeRecord(t, dir, "committed.json", base)

	for _, c := range []struct {
		name     string
		ns, allc float64
		fail     bool
	}{
		{"ns 10% worse", 1.1, 1, false},
		{"allocs 10% worse", 1, 1.1, false},
		{"ns 20% worse", 1.2, 1, true},
		{"allocs 20% worse", 1, 1.2, true},
	} {
		r := base
		r.DicerNsPerStep *= c.ns
		r.DicerAllocsPerStep *= c.allc
		fresh := writeRecord(t, dir, "fresh.json", r)
		if err := checkRegression(sweepGate, fresh, committed, 15); (err != nil) != c.fail {
			t.Errorf("%s: gate error %v, want failure %v", c.name, err, c.fail)
		}
	}
}
