package experiments

import (
	"math"
	"testing"

	"dicer/internal/chaos"
)

// equivSuites builds two identical suites, one on the optimized cached
// solver and one on the retained reference solver.
func equivSuites(t *testing.T) (opt, ref *Suite) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.HorizonPeriods = 30
	cfg.SweepHorizonPeriods = 20
	build := func(reference bool) *Suite {
		c := cfg
		c.ReferenceSolver = reference
		s, err := NewSuite(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return build(false), build(true)
}

// equivWorkloads is the scenario matrix: a cache-sensitive CT-Favoured
// pair, the paper's canonical CT-Thwarted pair (phase-heavy HP), and a
// bandwidth-hostile pair that saturates the link and exercises the
// saturation/sampling controller states.
func equivWorkloads() []Workload {
	return []Workload{
		{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
		{HP: "milc1", BE: "gcc_base1", BECount: 9},
		{HP: "mcf1", BE: "lbm1", BECount: 5},
	}
}

// TestSolverEquivalenceRuns holds the optimized solver to the reference
// across the scenario matrix under all three policies: every Result must
// agree within 1e-9 (the solves are bit-identical; the tolerance is the
// acceptance criterion's, not an expectation of drift).
func TestSolverEquivalenceRuns(t *testing.T) {
	opt, ref := equivSuites(t)
	for _, w := range equivWorkloads() {
		for _, pol := range []PolicyName{UM, CT, DICER} {
			ro, err := opt.Run(w, pol, opt.cfg.HorizonPeriods)
			if err != nil {
				t.Fatalf("%s/%s optimized: %v", w, pol, err)
			}
			rr, err := ref.Run(w, pol, ref.cfg.HorizonPeriods)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", w, pol, err)
			}
			for _, c := range []struct {
				name     string
				opt, ref float64
			}{
				{"HPIPC", ro.HPIPC, rr.HPIPC},
				{"BEIPC", ro.BEIPC, rr.BEIPC},
				{"HPAlone", ro.HPAlone, rr.HPAlone},
				{"BEAlone", ro.BEAlone, rr.BEAlone},
			} {
				if math.Abs(c.opt-c.ref) > 1e-9 {
					t.Errorf("%s/%s: %s diverged: optimized %v reference %v",
						w, pol, c.name, c.opt, c.ref)
				}
			}
		}
	}
}

// TestSolverEquivalenceChaos compares full DICER decision trajectories —
// the PR 1 FNV-1a fingerprint over (period, hpWays, state, CBMs) — between
// the two solvers for every chaos schedule × seed cell, plus the
// fault-free baseline. A fingerprint mismatch means the optimized solver
// steered the controller differently somewhere in the run.
func TestSolverEquivalenceChaos(t *testing.T) {
	opt, ref := equivSuites(t)
	horizon := 20
	cells := []struct {
		sched chaos.Config
		seed  int64
	}{{chaos.Config{Name: "none"}, 0}}
	for _, sched := range chaos.Schedules() {
		for _, seed := range []int64{1, 2} {
			cells = append(cells, struct {
				sched chaos.Config
				seed  int64
			}{sched, seed})
		}
	}
	for _, w := range equivWorkloads() {
		for _, cell := range cells {
			ro, err := opt.soakRun(w, cell.sched, cell.seed, horizon)
			if err != nil {
				t.Fatalf("%s %s seed %d optimized: %v", w, cell.sched.Name, cell.seed, err)
			}
			rr, err := ref.soakRun(w, cell.sched, cell.seed, horizon)
			if err != nil {
				t.Fatalf("%s %s seed %d reference: %v", w, cell.sched.Name, cell.seed, err)
			}
			if ro.Fingerprint != rr.Fingerprint {
				t.Errorf("%s schedule %q seed %d: decision fingerprint diverged: %x vs %x",
					w, cell.sched.Name, cell.seed, ro.Fingerprint, rr.Fingerprint)
			}
			if math.Abs(ro.HPIPC-rr.HPIPC) > 1e-9 {
				t.Errorf("%s schedule %q seed %d: HP IPC diverged: %v vs %v",
					w, cell.sched.Name, cell.seed, ro.HPIPC, rr.HPIPC)
			}
			if ro.FinalHPWays != rr.FinalHPWays {
				t.Errorf("%s schedule %q seed %d: final HP ways diverged: %d vs %d",
					w, cell.sched.Name, cell.seed, ro.FinalHPWays, rr.FinalHPWays)
			}
		}
	}
}
