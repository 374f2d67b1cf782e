package obs

// Flight recorder: the black-box layer behind incident forensics. Full
// JSONL tracing of a 1000-node fleet is too heavy to leave on, so each
// node instead keeps a small fixed-capacity ring of full-resolution
// entries — always armed, allocation-free once warm — and the fleet
// snapshots it into an incident bundle only when something goes wrong
// (an SLO-burn alert fires, a node freezes or is lost).
//
// FlightRing[T] is that ring: unsynchronized, single-writer, value-copy
// on push. The fleet keeps one FlightRing[FlightEntry] per node; entries
// are plain structs (string fields copy their headers, not their bytes),
// so Push is a slot assignment — a few nanoseconds over doing nothing,
// and 0 allocs/op warm. It is not safe for concurrent use; the fleet
// pushes every node's entry and snapshots rings only after the stepping
// barrier, serially, under the cluster lock.

// FlightRing is a fixed-capacity, single-writer ring buffer. Push never
// allocates; Snapshot appends oldest-first into a caller-supplied slice.
type FlightRing[T any] struct {
	slots []T
	pos   int // next write position
	n     int // valid slots (<= len(slots))
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
}

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
