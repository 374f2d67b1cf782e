package experiments

import (
	"strings"
	"testing"

	"dicer/internal/chaos"
)

func soakSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSoakMatrix is the acceptance soak: the full DICER loop over every
// fault schedule × >=3 seeds × the workload mix, invariants checked every
// period, HP degradation bounded against the fault-free run.
func TestSoakMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak matrix is long; skipped with -short")
	}
	s := soakSuite(t)
	cfg := SoakConfig{}
	res, err := s.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.defaults()
	if len(cfg.Schedules) < 5 {
		t.Fatalf("soak must cover >=5 schedules, got %d", len(cfg.Schedules))
	}
	if len(cfg.Seeds) < 3 {
		t.Fatalf("soak must cover >=3 seeds, got %d", len(cfg.Seeds))
	}
	wantRuns := len(cfg.Workloads) * len(cfg.Schedules) * len(cfg.Seeds)
	if len(res.Runs) != wantRuns {
		t.Fatalf("matrix incomplete: %d runs, want %d", len(res.Runs), wantRuns)
	}

	faultsBySchedule := map[string]int{}
	for _, run := range res.Runs {
		// One check after Setup, one per period, one post-drain.
		if run.InvariantChecks != cfg.HorizonPeriods+2 {
			t.Errorf("%s/%s/%d: %d invariant checks, want %d",
				run.Workload, run.Schedule, run.Seed,
				run.InvariantChecks, cfg.HorizonPeriods+2)
		}
		if run.Degradation > cfg.MaxHPDegradation {
			t.Errorf("%s/%s/%d: degradation %.1f%% exceeds bound",
				run.Workload, run.Schedule, run.Seed, run.Degradation*100)
		}
		st := run.Stats
		faultsBySchedule[run.Schedule] += st.Dropouts + st.FrozenReads +
			st.JitteredReads + st.WritesRejected + st.WritesDelayed
	}
	// Each schedule must actually inject its faults somewhere in the
	// matrix — a soak that never faults proves nothing.
	for name, faults := range faultsBySchedule {
		if faults == 0 {
			t.Errorf("schedule %q injected no faults across the matrix", name)
		}
	}
	t.Logf("max HP degradation across matrix: %.1f%%", res.MaxDegradation*100)
}

// TestSoakReplayDeterministic pins the replay guarantee at the harness
// level: a fixed (workload, schedule, seed) cell reproduces the same
// trajectory fingerprint and fault stats run-to-run, and a different seed
// diverges.
func TestSoakReplayDeterministic(t *testing.T) {
	s := soakSuite(t)
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	sched, err := chaos.ScheduleByName("storm")
	if err != nil {
		t.Fatal(err)
	}

	a, err := s.soakRun(w, sched, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.soakRun(w, sched, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.Stats != b.Stats {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
	c, err := s.soakRun(w, sched, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seed produced an identical trajectory")
	}
}

// TestSoakFaultFreeMatchesPlainRun sanity-checks the harness itself: with
// no faults, the soak loop is the ordinary experiment loop.
func TestSoakFaultFreeMatchesPlainRun(t *testing.T) {
	s := soakSuite(t)
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	run, err := s.soakRun(w, chaos.Config{Name: "none"}, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(w, DICER, 40)
	if err != nil {
		t.Fatal(err)
	}
	if run.HPIPC != res.HPIPC {
		t.Fatalf("fault-free soak IPC %v != plain run IPC %v", run.HPIPC, res.HPIPC)
	}
	st := run.Stats
	if st.Dropouts+st.FrozenReads+st.JitteredReads+st.WritesRejected+st.WritesDelayed != 0 {
		t.Fatalf("fault-free soak injected faults: %v", st)
	}
}

func TestSoakTable(t *testing.T) {
	res := &SoakResult{
		MaxHPDegradation: 0.35,
		Runs: []SoakRun{{
			Workload: Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
			Schedule: "jitter", Seed: 1,
			HPIPC: 0.91, FaultFreeHPIPC: 0.95, Degradation: 0.042,
			Stats: chaos.Stats{Reads: 60, JitteredReads: 58},
		}},
	}
	out := res.Table().String()
	for _, want := range []string{"Chaos soak", "omnetpp1", "jitter", "4.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
