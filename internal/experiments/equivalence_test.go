package experiments

import (
	"reflect"
	"testing"

	"dicer/internal/chaos"
)

// Parallel-vs-serial equivalence: the sharded executor must produce
// byte-identical output to Workers=1 for every worker count. Results are
// written into index-addressed slots and every simulation is seeded, so
// nothing downstream of the executor may depend on scheduling. Each test
// renders through the report tables (the user-visible byte stream) and,
// for the chaos soak, compares the per-period decision fingerprints.
// CI runs this file under -race, which also exercises the executor's
// claim/steal synchronisation.

// eqConfig is a reduced horizon configuration: the equivalence property
// is about ordering and synchronisation, not simulated duration.
func eqConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.HorizonPeriods = 30
	cfg.SweepHorizonPeriods = 20
	cfg.Workers = workers
	return cfg
}

func eqSuite(t *testing.T, workers int) *Suite {
	t.Helper()
	s, err := NewSuite(eqConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// eqMatrix is a small scenario matrix spanning the behaviour classes
// (cache-sensitive, streaming, compute) at two BE counts.
func eqMatrix() []Job {
	var jobs []Job
	for _, w := range []Workload{
		{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
		{HP: "milc1", BE: "gcc_base1", BECount: 9},
		{HP: "mcf1", BE: "lbm1", BECount: 5},
		{HP: "namd1", BE: "povray1", BECount: 2},
	} {
		for _, p := range Policies {
			jobs = append(jobs, Job{W: w, Policy: p, Horizon: 30})
		}
	}
	return jobs
}

func TestParallelSerialEquivalenceRunMany(t *testing.T) {
	serial := eqSuite(t, 1)
	jobs := eqMatrix()
	want, err := serial.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par := eqSuite(t, workers)
		got, err := par.RunMany(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from serial run", workers)
		}
	}
}

// TestParallelSerialEquivalenceSensitivity covers the controller-variant
// fan-out behind the sensitivity sweeps and the ablations.
func TestParallelSerialEquivalenceSensitivity(t *testing.T) {
	drivers := map[string]func(*Suite) (any, error){
		"bw":    func(s *Suite) (any, error) { return s.SensitivityBWThreshold(9) },
		"alpha": func(s *Suite) (any, error) { return s.SensitivityAlpha(9) },
		"phase": func(s *Suite) (any, error) { return s.SensitivityPhaseThreshold(9) },
		"step":  func(s *Suite) (any, error) { return s.SensitivitySampleStep(9) },
		"abl":   func(s *Suite) (any, error) { return s.Ablations(9) },
	}
	serial, par := eqSuite(t, 1), eqSuite(t, 4)
	for name, run := range drivers {
		want, err := run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		got, err := run(par)
		if err != nil {
			t.Fatalf("%s workers=4: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: workers=4 result differs from serial:\n%+v\nvs\n%+v", name, got, want)
		}
	}
}

func TestParallelSerialEquivalenceFigure3Table(t *testing.T) {
	want, err := eqSuite(t, 1).Figure3("milc1", "gcc_base1", 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eqSuite(t, 8).Figure3("milc1", "gcc_base1", 9)
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := want.Table().String(), got.Table().String()
	if ws != gs {
		t.Fatalf("rendered Figure 3 differs:\nserial:\n%s\nparallel:\n%s", ws, gs)
	}
}

func TestParallelSerialEquivalenceFigure2Table(t *testing.T) {
	want, err := eqSuite(t, 1).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eqSuite(t, 8).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := want.Table().String(), got.Table().String()
	if ws != gs {
		t.Fatalf("rendered Figure 2 differs:\nserial:\n%s\nparallel:\n%s", ws, gs)
	}
}

func TestParallelSerialEquivalenceSoak(t *testing.T) {
	cfg := SoakConfig{
		Workloads:      []Workload{{HP: "milc1", BE: "gcc_base1", BECount: 9}},
		Schedules:      []chaos.Config{chaos.Schedules()[5]}, // storm: every fault class at once
		Seeds:          []int64{1, 2},
		HorizonPeriods: 20,
	}
	want, err := eqSuite(t, 1).Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eqSuite(t, 8).Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		w, g := want.Runs[i], got.Runs[i]
		if g.Fingerprint != w.Fingerprint {
			t.Errorf("cell %d (%s %s seed %d): decision fingerprint %x != serial %x",
				i, w.Workload, w.Schedule, w.Seed, g.Fingerprint, w.Fingerprint)
		}
	}
	ws, gs := want.Table().String(), got.Table().String()
	if ws != gs {
		t.Fatalf("rendered soak table differs:\nserial:\n%s\nparallel:\n%s", ws, gs)
	}
}

func TestParallelSerialEquivalenceFleetTable(t *testing.T) {
	fc := FleetConfig{HorizonPeriods: 20}
	want, err := eqSuite(t, 1).FleetSuite(fc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eqSuite(t, 8).FleetSuite(fc)
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := FleetTable(want).String(), FleetTable(got).String()
	if ws != gs {
		t.Fatalf("rendered fleet table differs:\nserial:\n%s\nparallel:\n%s", ws, gs)
	}
}
