// Package par implements the repo's parallel executor, a sharded
// work-stealing pool over an index space, and Once, the compute-once
// cell of the Suite's run memo and sim.AloneTable. It is a leaf
// package — no internal dependencies — so every layer can use it: the
// experiment engine fans cells out through it, internal/hypo replicates
// seeds across it, and the fleet layer batches node stepping through it.
// Parallelism stays bounded in exactly one place per caller and output
// ordering is deterministic by construction: workers write results into
// caller-owned, index-addressed slots, so the result of job i lands in
// slot i no matter which worker ran it or when.
//
// The index space [0, n) is split into one contiguous shard per worker.
// Each worker drains its own shard through an atomic cursor, then
// steals from the other shards in ring order. Stealing uses the same
// cursor, so an index is claimed exactly once; a worker leaves a shard
// only when its cursor has passed the end, which guarantees every index
// is claimed even when visits interleave. Contiguous shards keep each
// worker's memo and cache accesses clustered; stealing bounds the tail
// when shard costs are skewed (co-located runs vary ~10× with BECount).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// shard is one worker's slice of the index space. The cursor is padded
// to a cache line so concurrent claims on neighbouring shards do not
// false-share.
type shard struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// Execute runs fn(i) for every i in [0, n) across workers goroutines
// (workers <= 0 means GOMAXPROCS). Every index runs exactly once even
// if some fail; the returned error is the one from the lowest failing
// index, so error reporting is as deterministic as the results
// themselves. fn must be safe for concurrent calls with distinct i.
func Execute(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path, duplicated from ExecuteW so the wrapping
		// closure below never exists here: warm serial Execute calls are
		// pinned allocation-free by the experiment engine's tests.
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return ExecuteW(n, workers, func(_, i int) error { return fn(i) })
}

// ExecuteW is Execute with the executing worker's index passed to fn:
// fn(w, i) runs index i on worker w, with w in [0, workers'), where
// workers' is the effective worker count after clamping (1 on the
// serial path). Callers that accumulate partial results per worker key
// them by w — each w runs on exactly one goroutine, so a per-w
// accumulator needs no locking, and integer (commutative) merges over w
// are deterministic regardless of which worker stole which index.
func ExecuteW(n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial: same run-everything, lowest-index-error contract,
		// with no goroutine or shard setup.
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	shards := make([]shard, workers)
	base, rem := n/workers, n%workers
	start := 0
	for i := range shards {
		size := base
		if i < rem {
			size++
		}
		shards[i].next.Store(int64(start))
		shards[i].end = int64(start + size)
		start += size
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errIdx   = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// len(shards), not the workers parameter: capturing the
			// (reassigned) parameter would move it to the heap at
			// function entry, costing the serial path an allocation.
			for off := 0; off < len(shards); off++ {
				sh := &shards[(w+off)%len(shards)]
				for {
					i := int(sh.next.Add(1) - 1)
					if int64(i) >= sh.end {
						break
					}
					if err := fn(w, i); err != nil {
						errMu.Lock()
						if i < errIdx {
							errIdx, firstErr = i, err
						}
						errMu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
