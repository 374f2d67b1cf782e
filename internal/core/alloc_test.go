package core

import (
	"errors"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/resctrl"
)

// quietSystem is an allocation-free fakeSystem: array-backed masks and no
// write log, so AllocsPerRun measures only the controller itself.
type quietSystem struct {
	ways  int
	masks [4]uint64
}

func (q *quietSystem) NumWays() int { return q.ways }
func (q *quietSystem) NumClos() int { return len(q.masks) }
func (q *quietSystem) SetCBM(clos int, mask uint64) error {
	if err := cache.CheckMask(mask, q.ways); err != nil {
		return err
	}
	q.masks[clos] = mask
	return nil
}
func (q *quietSystem) CBM(clos int) uint64          { return q.masks[clos] }
func (q *quietSystem) SetMBACap(int, float64) error { return errors.New("no MBA") }
func (q *quietSystem) LinkCapacityGbps() float64    { return 68.3 }
func (q *quietSystem) Counters() resctrl.Counters   { return resctrl.Counters{} }

var _ resctrl.System = (*quietSystem)(nil)

// TestObserveAllocFree pins the controller's per-period allocation
// behaviour: on both the steady hold path and the reset/validate write
// path, Observe must not allocate. The bandwidth-history ring buffer
// exists precisely for this property; a regression here means a slice or
// closure crept back into the hot path.
func TestObserveAllocFree(t *testing.T) {
	ctl := MustNew(DefaultConfig())
	sys := &quietSystem{ways: 20}
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	steady := obs(1.0, 5, 20)
	// Warm up: stable IPC shrinks the allocation to MinHPWays, after
	// which every steady observation takes the hold path (no writes).
	for i := 0; i < 30; i++ {
		if err := ctl.Observe(sys, steady); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := ctl.Observe(sys, steady); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("steady hold path: %v allocs/period, want 0", got)
	}

	// Oscillating IPC alternates reset (schemata write, validate state)
	// and rollback/hold decisions — the write path must be allocation-free
	// too.
	flip := false
	if got := testing.AllocsPerRun(200, func() {
		flip = !flip
		p := obs(0.6, 5, 20)
		if flip {
			p = obs(1.4, 5, 20)
		}
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("reset/validate path: %v allocs/period, want 0", got)
	}
}

// TestNewSetupAllocBudget pins the cost of building the single-HP
// controller: the paper sweep builds one per cell (3,481 per figure), so
// New plus Setup on the two-CLOS split must neither plan nor grow — at
// most 448 bytes in at most two allocations.
func TestNewSetupAllocBudget(t *testing.T) {
	sys := &quietSystem{ways: 20}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctl, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := ctl.Setup(sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > 448 {
		t.Errorf("New+Setup allocates %d B/op, budget 448", got)
	}
	if got := res.AllocsPerOp(); got > 2 {
		t.Errorf("New+Setup makes %d allocs/op, budget 2", got)
	}
}
