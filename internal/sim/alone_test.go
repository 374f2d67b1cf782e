package sim

import (
	"sync"
	"testing"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// aloneSteps and aloneDt size the tables under test: 30 s of 0.25-s
// steps, long enough to cross the phase changes of the phased profiles.
const (
	aloneSteps = 120
	aloneDt    = 0.25
)

// freshAloneIPC is the value a table cell must hold: the same alone run
// on a runner of its own.
func freshAloneIPC(t *testing.T, prof app.Profile, ways int, reference bool) float64 {
	t.Helper()
	r, err := New(machine.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.UseReferenceSolver(reference)
	ipc, err := r.AloneIPC(prof, ways, aloneSteps, aloneDt)
	if err != nil {
		t.Fatal(err)
	}
	return ipc
}

// TestAloneTableMatchesFreshRunner holds every cell to a fresh runner
// bit for bit, at full and partial ways. The table runs its misses one
// after another on one pooled runner, so each cell after the first
// also checks that Runner.AloneIPC's reset leaves nothing behind.
func TestAloneTableMatchesFreshRunner(t *testing.T) {
	tab := NewAloneTable(machine.Default(), aloneSteps, aloneDt, false)
	names := []string{"omnetpp1", "sphinx1", "mcf1", "lbm1", "namd1"}
	for pass := 0; pass < 2; pass++ {
		for _, ways := range []int{20, 11, 4, 1} {
			for _, name := range names {
				prof := app.MustByName(name)
				got, err := tab.IPC(prof, ways)
				if err != nil {
					t.Fatal(err)
				}
				if want := freshAloneIPC(t, prof, ways, false); got != want {
					t.Errorf("pass %d: %s at %d ways: table %v, fresh runner %v", pass, name, ways, got, want)
				}
			}
		}
	}
	if len(tab.idle) != 1 {
		t.Errorf("sequential misses built %d runners, want 1", len(tab.idle))
	}
}

// TestAloneTableConcurrentSingleflight looks one cell up from many
// goroutines at once: all of them read the same value, one runner is
// ever built, so no two lookups simulated the cell side by side, and a
// later lookup reads the cell without simulating again. The cell runs
// twenty times longer than the other tests' so that lookups which did
// not wait for it would overlap.
func TestAloneTableConcurrentSingleflight(t *testing.T) {
	tab := NewAloneTable(machine.Default(), 20*aloneSteps, aloneDt, false)
	prof := app.MustByName("sphinx1")
	const n = 16
	got := make([]float64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ipc, err := tab.IPC(prof, 20)
			if err != nil {
				t.Error(err)
			}
			got[i] = ipc
		}(i)
	}
	close(start)
	wg.Wait()
	want := got[0]
	for i, v := range got {
		if v != want {
			t.Errorf("goroutine %d read %v, want %v", i, v, want)
		}
	}
	if len(tab.cells) != 1 || len(tab.idle) != 1 {
		t.Fatalf("%d cells and %d runners after concurrent lookups of one cell, want 1 and 1", len(tab.cells), len(tab.idle))
	}
	tab.idle = nil
	if v, err := tab.IPC(prof, 20); err != nil || v != want {
		t.Fatalf("warm lookup read %v, %v; want %v", v, err, want)
	}
	if len(tab.idle) != 0 {
		t.Fatal("a warm lookup simulated the cell again")
	}
}

// TestAloneTableWarmZeroAlloc pins the warm lookup at zero allocations:
// the Suite resolves both references of every co-located run through it.
func TestAloneTableWarmZeroAlloc(t *testing.T) {
	tab := NewAloneTable(machine.Default(), aloneSteps, aloneDt, false)
	prof := app.MustByName("namd1")
	if _, err := tab.IPC(prof, 20); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := tab.IPC(prof, 20); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("warm lookup allocates %v/op, want 0", got)
	}
}

// TestAloneTableSolver checks that a table runs its misses on runners
// with its solver selected. The two solvers agree bit for bit on alone
// runs, so only the pooled runner shows which one ran.
func TestAloneTableSolver(t *testing.T) {
	prof := app.MustByName("mcf1")
	for _, reference := range []bool{false, true} {
		tab := NewAloneTable(machine.Default(), aloneSteps, aloneDt, reference)
		got, err := tab.IPC(prof, 11)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshAloneIPC(t, prof, 11, reference); got != want {
			t.Errorf("reference %v: table %v, fresh runner %v", reference, got, want)
		}
		if len(tab.idle) != 1 || tab.idle[0].useReference != reference {
			t.Errorf("reference %v: the table's runner does not run that solver", reference)
		}
	}
}
