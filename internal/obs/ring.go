package obs

import "sync"

// Ring is a fixed-capacity, thread-safe ring buffer of Records: the
// in-memory sink behind the /trace endpoint and the property tests.
// Incoming records are deep-copied into storage each slot owns: group
// records with their decision buffers, sized for every slot at once by
// the first record with groups (and again only by one with more
// groups). A record's plan is shared, never rewritten. Emit otherwise
// never allocates, so a ring can sit on the monitoring hot path for the
// lifetime of a deployment.
type Ring struct {
	mu    sync.Mutex
	slots []ringSlot
	pos   int // next write position
	n     int // valid slots (<= len(slots))
}

// ringSlot stores one record plus the backing arrays its Groups slice
// and their Decisions point into, so retention never aliases the
// Recorder's scratch.
type ringSlot struct {
	rec    Record
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

// Snapshot returns the held records oldest-first as copies that share
// nothing the ring writes again, safe to serialise while it keeps
// filling.
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

var _ Sink = (*Ring)(nil)
