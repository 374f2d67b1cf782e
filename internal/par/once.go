package par

import (
	"sync"
	"sync/atomic"
)

// Once is a compute-once cell: the first Do runs f and keeps its value
// and error, concurrent first callers wait for it, and every later Do
// returns them without running f. Unlike sync.Once it holds the result,
// and f does not escape, so a caller may pass a closure and a warm Do
// still allocates nothing. The zero value is an empty cell.
type Once[V any] struct {
	done atomic.Bool
	mu   sync.Mutex
	v    V
	err  error
}

// Do returns the cell's value and error, running f to compute them if no
// call has yet.
func (o *Once[V]) Do(f func() (V, error)) (V, error) {
	if !o.done.Load() {
		o.mu.Lock()
		if !o.done.Load() {
			o.v, o.err = f()
			o.done.Store(true)
		}
		o.mu.Unlock()
	}
	return o.v, o.err
}
