package experiments

import (
	"testing"

	"dicer/internal/par"
)

// The executor's unit tests (coverage, stealing, error ordering, edge
// cases) live with the implementation in internal/par. What stays here
// are the guards that tie the executor to this package's hot path.
//
// Zero-alloc guards: the 59×59 sweep performs ~7k memoised runs and
// ~2.3M steps; a single allocation on the warm lookup or the
// result-slot write multiplies into measurable GC load, so both are
// pinned at zero.

func TestMemoLookupWarmZeroAlloc(t *testing.T) {
	s := suite(t)
	w := Workload{HP: "namd1", BE: "povray1", BECount: 1}
	if _, err := s.Run(w, UM, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AloneIPC("namd1"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := s.Run(w, UM, 5); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("warm Run lookup allocates %v/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := s.AloneIPCWays("namd1", s.Config().Machine.LLCWays); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("warm AloneIPCWays lookup allocates %v/op, want 0", got)
	}
}

func TestResultSlotWriteZeroAlloc(t *testing.T) {
	s := suite(t)
	jobs := []Job{
		{W: Workload{HP: "namd1", BE: "povray1", BECount: 1}, Policy: UM, Horizon: 5},
		{W: Workload{HP: "povray1", BE: "namd1", BECount: 1}, Policy: UM, Horizon: 5},
	}
	if _, err := s.RunMany(jobs); err != nil {
		t.Fatal(err)
	}
	// Warm executor pass with a caller-owned arena: claiming indices and
	// writing result slots must not allocate (the arena, the jobs, and
	// the job closure are the only per-call state, all hoisted here).
	results := make([]Result, len(jobs))
	runJob := func(i int) error {
		var err error
		results[i], err = s.Run(jobs[i].W, jobs[i].Policy, jobs[i].Horizon)
		return err
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := par.Execute(len(jobs), 1, runJob); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("warm result-slot writes allocate %v/op, want 0", got)
	}
}

// TestSuiteRunAllocBudget pins the cost of one uncached co-located run
// on a warm pool: the paper sweeps make thousands of them, so the run
// loop, the pooled scenario and the alone lookups must stay within a
// fixed per-run budget (omnetpp1 + 9 gcc_base1 over 80 periods).
func TestSuiteRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats the pool the budget relies on")
	}
	s := suite(t)
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	for _, c := range []struct {
		pol           PolicyName
		bytes, allocs int64
	}{
		{UM, 1720, 21},
		{DICER, 2146, 22},
	} {
		if _, err := s.runUncached(w, c.pol, 80); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.runUncached(w, c.pol, 80); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > c.bytes {
			t.Errorf("%s run allocates %d B/op, budget %d", c.pol, got, c.bytes)
		}
		if got := res.AllocsPerOp(); got > c.allocs {
			t.Errorf("%s run makes %d allocs/op, budget %d", c.pol, got, c.allocs)
		}
	}
}
