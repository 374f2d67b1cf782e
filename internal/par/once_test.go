package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnceConcurrentRunsOnce starts 16 goroutines on one empty cell and
// holds the computation until all of them are about to call Do: it runs
// once, and every caller reads its value.
func TestOnceConcurrentRunsOnce(t *testing.T) {
	const n = 16
	var (
		cell    Once[int]
		runs    atomic.Int32
		ready   sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		got     = make([]int, n)
	)
	ready.Add(n)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			v, err := cell.Do(func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	ready.Wait()
	close(release)
	done.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("%d goroutines ran the cell's function %d times, want 1", n, r)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("goroutine %d read %d, want 42", i, v)
		}
	}
}

// TestOnceErrorComputedOnce checks that a failed computation is kept like
// a value: later callers get the same error without running f again.
func TestOnceErrorComputedOnce(t *testing.T) {
	var cell Once[float64]
	want := errors.New("boom")
	runs := 0
	for i := 0; i < 3; i++ {
		v, err := cell.Do(func() (float64, error) {
			runs++
			return 1.5, want
		})
		if !errors.Is(err, want) || v != 1.5 {
			t.Fatalf("call %d read %v, %v; want 1.5, %v", i, v, err, want)
		}
	}
	if runs != 1 {
		t.Fatalf("the cell's function ran %d times, want 1", runs)
	}
}

// TestOnceWarmZeroAlloc pins a warm Do, called with a closure over the
// caller's locals as the Suite and sim.AloneTable call it, at zero
// allocations.
func TestOnceWarmZeroAlloc(t *testing.T) {
	var cell Once[[4]float64]
	x := 2.0
	f := func() ([4]float64, error) { return [4]float64{x}, nil }
	if _, err := cell.Do(f); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if v, err := cell.Do(func() ([4]float64, error) { return [4]float64{x}, nil }); err != nil || v[0] != 2 {
			t.Error(v, err)
		}
	}); got != 0 {
		t.Errorf("warm Do allocates %v/op, want 0", got)
	}
}
