package obs

import (
	"testing"

	"dicer/internal/core"
)

// TestFlightRingWraparound exercises the generic ring through several
// full wraps: ordering stays oldest-first, eviction keeps exactly the
// last capacity values, and Total counts evictions too.
func TestFlightRingWraparound(t *testing.T) {
	r := NewFlightRing[int](5)
	if r.Cap() != 5 || r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
	}
	for i := 0; i < 3; i++ {
		r.Push(i)
	}
	if got := r.Snapshot(nil); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("partial ring snapshot = %v", got)
	}
	for i := 3; i < 23; i++ {
		r.Push(i)
	}
	if r.Len() != 5 || r.Total() != 23 {
		t.Fatalf("wrapped ring: len=%d total=%d", r.Len(), r.Total())
	}
	got := r.Snapshot(nil)
	for i, v := range got {
		if want := 18 + i; v != want {
			t.Fatalf("snapshot[%d] = %d, want %d (full: %v)", i, v, want, got)
		}
	}
	// Snapshot appends to the caller's slice without clobbering it.
	pre := []int{-1}
	if got := r.Snapshot(pre); len(got) != 6 || got[0] != -1 || got[1] != 18 {
		t.Fatalf("appending snapshot = %v", got)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Snapshot(nil)) != 0 {
		t.Fatalf("reset ring not empty: len=%d total=%d", r.Len(), r.Total())
	}
}

// TestFlightRingPushAllocFree pins the generic ring's hot-path cost:
// pushing a struct with string fields is a slot copy, 0 allocs/op.
func TestFlightRingPushAllocFree(t *testing.T) {
	type entry struct {
		Period int
		Cause  string
		IPC    float64
	}
	r := NewFlightRing[entry](64)
	e := entry{Cause: "shrink-step", IPC: 1.25}
	if got := testing.AllocsPerRun(200, func() {
		e.Period++
		r.Push(e)
	}); got != 0 {
		t.Errorf("FlightRing.Push: %v allocs, want 0", got)
	}
}

// BenchmarkFlightRecord measures the flight recorder's per-period cost
// at 0 allocs/op: "nop" is the baseline a ring adds to — Observe plus
// record assembly into NopSink — and "push-only" is the ring push the
// fleet pays per node per period with the recorder armed. CI's
// bench-smoke runs it with -benchmem.
func BenchmarkFlightRecord(b *testing.B) {
	b.Run("nop", func(b *testing.B) {
		ctl := core.MustNew(core.DefaultConfig())
		sys := &fakeSystem{ways: 20}
		rec := NewRecorder(NopSink{})
		rec.AttachController(ctl)
		if err := ctl.Setup(sys); err != nil {
			b.Fatal(err)
		}
		steady := period(1.0, 0.8, 5, 20)
		for i := 0; i < 30; i++ {
			if err := ctl.Observe(sys, steady); err != nil {
				b.Fatal(err)
			}
			rec.EndPeriod(i, steady, sys, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ctl.Observe(sys, steady); err != nil {
				b.Fatal(err)
			}
			rec.EndPeriod(i, steady, sys, nil)
		}
	})
	b.Run("push-only", func(b *testing.B) {
		r := NewFlightRing[Record](64)
		rec := Record{Period: 1, HPIPC: 1.2, Cause: "steady", State: "optimise"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Period = i
			r.Push(rec)
		}
	})
}
