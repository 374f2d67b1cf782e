package sim

import (
	"sync"

	"dicer/internal/app"
	"dicer/internal/machine"
	"dicer/internal/par"
)

// AloneTable memoises Runner.AloneIPC, the reference EFU (Eq. 1) and the
// SLO (Eq. 5) normalise to, for one machine, run length, step length and
// solver. Cells are keyed by profile name and ways and computed once
// each. A table is safe for concurrent use; each owner (a Suite, a
// Scenario run, a fleet Cluster) holds its own.
type AloneTable struct {
	m         machine.Machine
	steps     int
	dt        float64
	reference bool

	mu    sync.Mutex
	cells map[aloneKey]*par.Once[float64]
	idle  []*Runner
}

type aloneKey struct {
	name string
	ways int
}

// NewAloneTable returns an empty table whose cells run steps steps of dt
// seconds on m, through the reference solver when reference is set.
func NewAloneTable(m machine.Machine, steps int, dt float64, reference bool) *AloneTable {
	return &AloneTable{m: m, steps: steps, dt: dt, reference: reference, cells: map[aloneKey]*par.Once[float64]{}}
}

// IPC returns prof's cumulative IPC running alone in the low ways ways
// of the LLC, simulating it on the first lookup of (prof.Name, ways).
func (t *AloneTable) IPC(prof app.Profile, ways int) (float64, error) {
	key := aloneKey{prof.Name, ways}
	t.mu.Lock()
	c := t.cells[key]
	if c == nil {
		c = new(par.Once[float64])
		t.cells[key] = c
	}
	t.mu.Unlock()
	return c.Do(func() (float64, error) { return t.run(prof, ways) })
}

// run simulates one cell on an idle runner, or on a new one if none is.
func (t *AloneTable) run(prof app.Profile, ways int) (float64, error) {
	t.mu.Lock()
	var r *Runner
	if n := len(t.idle); n > 0 {
		r, t.idle = t.idle[n-1], t.idle[:n-1]
	}
	t.mu.Unlock()
	if r == nil {
		var err error
		if r, err = New(t.m, 1); err != nil {
			return 0, err
		}
		r.UseReferenceSolver(t.reference)
	}
	ipc, err := r.AloneIPC(prof, ways, t.steps, t.dt)
	t.mu.Lock()
	t.idle = append(t.idle, r)
	t.mu.Unlock()
	return ipc, err
}
