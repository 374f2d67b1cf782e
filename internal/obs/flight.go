package obs

// Flight recorder: the black-box layer behind incident forensics. Full
// JSONL tracing of a 1000-node fleet is too heavy to leave on, so each
// node instead keeps a small fixed-capacity ring of full-resolution
// entries — always armed, allocation-free once warm — and the fleet
// snapshots it into an incident bundle only when something goes wrong
// (an SLO-burn alert fires, a guard vetoes, a node freezes or is lost).
//
// FlightRing[T] is that ring: unsynchronized, single-writer, value-copy
// on push. The fleet keeps one FlightRing[FlightEntry] per node; entries
// are plain structs (string fields copy their headers, not their bytes),
// so Push is a slot assignment — a few nanoseconds over doing nothing,
// and 0 allocs/op warm. It is not safe for concurrent use; the fleet
// writes each node's ring from exactly one executor worker per period
// and snapshots only after the stepping barrier, under the cluster lock.

// FlightRing is a fixed-capacity, single-writer ring buffer. Push never
// allocates; Snapshot appends oldest-first into a caller-supplied slice.
type FlightRing[T any] struct {
	slots []T
	pos   int // next write position
	n     int // valid slots (<= len(slots))
	total int // values ever pushed
}

// NewFlightRing creates a ring retaining the most recent capacity values.
func NewFlightRing[T any](capacity int) *FlightRing[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRing[T]{slots: make([]T, capacity)}
}

// Push copies v into the ring, evicting the oldest value when full.
func (g *FlightRing[T]) Push(v T) {
	g.slots[g.pos] = v
	g.pos = (g.pos + 1) % len(g.slots)
	if g.n < len(g.slots) {
		g.n++
	}
	g.total++
}

// Len returns the number of values currently held.
func (g *FlightRing[T]) Len() int { return g.n }

// Cap returns the ring capacity.
func (g *FlightRing[T]) Cap() int { return len(g.slots) }

// Total returns the number of values ever pushed (held or evicted).
func (g *FlightRing[T]) Total() int { return g.total }

// Snapshot appends the held values oldest-first to dst and returns the
// extended slice. Values are shallow copies: callers that need isolation
// from future pushes own the returned slice, but any reference fields
// inside T still alias whatever the producer stored.
func (g *FlightRing[T]) Snapshot(dst []T) []T {
	start := g.pos - g.n
	if start < 0 {
		start += len(g.slots)
	}
	for i := 0; i < g.n; i++ {
		dst = append(dst, g.slots[(start+i)%len(g.slots)])
	}
	return dst
}

// Reset empties the ring without releasing its slots.
func (g *FlightRing[T]) Reset() {
	var zero T
	for i := range g.slots {
		g.slots[i] = zero
	}
	g.pos, g.n, g.total = 0, 0, 0
}
