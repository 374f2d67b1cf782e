package obs

import "sync"

// Ring is a fixed-capacity, thread-safe ring buffer of Records: the
// in-memory sink behind the /trace endpoint and the property tests.
// Incoming records are deep-copied into storage each slot owns: a fixed
// decision buffer, and group records with their decision buffers,
// sized for every slot at once by the first grouped record (and again
// only by one with more groups). Emit otherwise never allocates, so a
// ring can sit on the monitoring hot path for the lifetime of a
// deployment.
type Ring struct {
	mu    sync.Mutex
	slots []ringSlot
	pos   int // next write position
	n     int // valid slots (<= len(slots))
	total int // records ever emitted
}

// ringSlot stores one record plus the backing arrays its Decisions and
// Groups slices point into, so retention never aliases the Recorder's
// scratch.
type ringSlot struct {
	rec    Record
	dec    [maxDecisions]string
	groups []GroupRecord
	gdec   [][maxDecisions]string
}

// NewRing creates a ring holding the most recent capacity records.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{slots: make([]ringSlot, capacity)}
}

// Emit implements Sink.
func (g *Ring) Emit(r *Record) {
	g.mu.Lock()
	s := &g.slots[g.pos]
	s.rec = *r
	nd := copy(s.dec[:], r.Decisions)
	s.rec.Decisions = s.dec[:nd]
	if len(r.Groups) > 0 {
		if len(r.Groups) > len(s.groups) {
			g.growGroups(len(r.Groups))
		}
		s.rec.Groups = s.groups[:len(r.Groups)]
		for i := range s.rec.Groups {
			gr := &s.rec.Groups[i]
			*gr = r.Groups[i]
			if gr.Decisions != nil {
				gr.Decisions = s.gdec[i][:copy(s.gdec[i][:], gr.Decisions)]
			}
		}
	}
	g.pos = (g.pos + 1) % len(g.slots)
	if g.n < len(g.slots) {
		g.n++
	}
	g.total++
	g.mu.Unlock()
}

// growGroups gives every slot storage for k groups. Records already held
// keep the storage they were copied into; nothing writes it again.
func (g *Ring) growGroups(k int) {
	groups := make([]GroupRecord, k*len(g.slots))
	gdec := make([][maxDecisions]string, k*len(g.slots))
	for i := range g.slots {
		g.slots[i].groups = groups[i*k : (i+1)*k]
		g.slots[i].gdec = gdec[i*k : (i+1)*k]
	}
}

// Len returns the number of records currently held.
func (g *Ring) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Total returns the number of records ever emitted (held or evicted).
func (g *Ring) Total() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// Snapshot returns the held records oldest-first as independent deep
// copies, safe to serialise while the ring keeps filling.
func (g *Ring) Snapshot() []Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Record, 0, g.n)
	start := g.pos - g.n
	if start < 0 {
		start += len(g.slots)
	}
	for i := 0; i < g.n; i++ {
		slot := &g.slots[(start+i)%len(g.slots)]
		out = append(out, slot.rec.clone())
	}
	return out
}

// Last returns the most recent record (deep copy) and whether one exists.
func (g *Ring) Last() (Record, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == 0 {
		return Record{}, false
	}
	i := g.pos - 1
	if i < 0 {
		i += len(g.slots)
	}
	return g.slots[i].rec.clone(), true
}

var _ Sink = (*Ring)(nil)
