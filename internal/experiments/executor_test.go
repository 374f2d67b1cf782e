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
