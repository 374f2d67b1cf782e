package sim

import (
	"sync"
	"sync/atomic"

	"dicer/internal/app"
	"dicer/internal/machine"
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
	cells map[aloneKey]*aloneCell
	idle  []*Runner
}

type aloneKey struct {
	name string
	ways int
}

// aloneCell is computed by its first reader under mu and published
// through done, which later readers check without locking. Unlike
// sync.Once.Do it takes no closure, so a warm lookup allocates nothing.
type aloneCell struct {
	done atomic.Bool
	mu   sync.Mutex
	ipc  float64
	err  error
}

// NewAloneTable returns an empty table whose cells run steps steps of dt
// seconds on m, through the reference solver when reference is set.
func NewAloneTable(m machine.Machine, steps int, dt float64, reference bool) *AloneTable {
	return &AloneTable{m: m, steps: steps, dt: dt, reference: reference, cells: map[aloneKey]*aloneCell{}}
}

// IPC returns prof's cumulative IPC running alone in the low ways ways
// of the LLC, simulating it on the first lookup of (prof.Name, ways).
func (t *AloneTable) IPC(prof app.Profile, ways int) (float64, error) {
	key := aloneKey{prof.Name, ways}
	t.mu.Lock()
	c := t.cells[key]
	if c == nil {
		c = new(aloneCell)
		t.cells[key] = c
	}
	t.mu.Unlock()
	if !c.done.Load() {
		c.mu.Lock()
		if !c.done.Load() {
			c.ipc, c.err = t.run(prof, ways)
			c.done.Store(true)
		}
		c.mu.Unlock()
	}
	return c.ipc, c.err
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
