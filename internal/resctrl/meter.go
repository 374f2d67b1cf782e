package resctrl

// Meter converts the cumulative counters a System exposes into per-period
// readings — exactly what a userspace controller does with RDT: read the
// MSRs, subtract the previous reading, divide by the period.
//
// Sampling is allocation-free in steady state: the Meter owns the backing
// arrays of the Period it returns and of its baseline reading, and reuses
// them every call. A returned Period is therefore valid only until the
// next Sample or Rebaseline on the same Meter — exactly the lifetime of a
// monitoring period. Callers that need a reading to outlive its period
// must copy the Cores and Groups slices.
type Meter struct {
	sys  System
	prev Counters // baseline reading (Meter-owned backing)
	cur  Counters // scratch for the in-place read path (Meter-owned)
	out  Period   // reused backing for the returned Period

	// Scratch maps for the slow path (population changed between
	// samples without a Rebaseline); lazily allocated, reused after.
	prevCores  map[int]CoreSample
	prevGroups map[int]GroupSample
}

// PeriodCore is one core's activity over a monitoring period.
type PeriodCore struct {
	Core int
	Clos int
	Name string
	IPC  float64
}

// PeriodGroup is one CLOS's activity over a monitoring period.
type PeriodGroup struct {
	Clos           int
	CBM            uint64
	OccupancyBytes float64 // instantaneous at period end
	BandwidthGbps  float64 // average over the period
}

// Period is a complete monitoring-period reading.
type Period struct {
	Seconds   float64
	Cores     []PeriodCore
	Groups    []PeriodGroup
	TotalGbps float64 // total memory bandwidth over the period
}

// NewMeter creates a Meter and takes the initial baseline reading.
func NewMeter(sys System) *Meter {
	m := &Meter{sys: sys}
	m.Rebaseline()
	return m
}

// readInto reads the counters into c, using the in-place CountersReader
// path when the System offers it (the simulator-backed Emu does) and
// falling back to the allocating Counters call otherwise.
func (m *Meter) readInto(c *Counters) {
	if cr, ok := m.sys.(CountersReader); ok {
		cr.CountersInto(c)
		return
	}
	*c = m.sys.Counters()
}

// Rebaseline re-reads the counters and makes them the new baseline
// without producing a Period. Callers that change the monitored
// population between periods (the fleet layer attaches and detaches BE
// jobs at period boundaries) rebaseline so the next Sample never
// subtracts an old process's cumulative counters from a fresh one's.
//
// Sample reads only a baseline's ids, instructions, cycles and traffic,
// never its occupancy. Over an Emu the baseline is therefore read
// without the occupancy estimate, whose share solve the next Step would
// redo anyway; any other System, such as the chaos layer whose reads
// advance its fault clock, is read as every Sample reads it.
func (m *Meter) Rebaseline() {
	if e, ok := m.sys.(*Emu); ok {
		e.baselineInto(&m.prev)
		return
	}
	m.readInto(&m.prev)
}

// Sample reads the counters, returns the delta since the previous Sample
// (or since construction), and advances the baseline. The returned
// Period's slices are Meter-owned and reused by the next Sample.
func (m *Meter) Sample() Period {
	m.readInto(&m.cur)
	cur, prev := &m.cur, &m.prev
	dt := cur.Time - prev.Time
	p := &m.out
	p.Seconds = dt
	p.TotalGbps = 0
	p.Cores = p.Cores[:0]
	p.Groups = p.Groups[:0]

	// Fast path: the monitored population is unchanged since the
	// baseline (same cores and CLOS groups in the same order — the
	// common case, since population changes rebaseline). Match
	// baseline entries by index instead of building lookup maps.
	if m.aligned() {
		for i, c := range cur.Cores {
			pc := prev.Cores[i]
			di := c.Instructions - pc.Instructions
			dc := c.Cycles - pc.Cycles
			ipc := 0.0
			if dc > 0 {
				ipc = di / dc
			}
			p.Cores = append(p.Cores, PeriodCore{Core: c.Core, Clos: c.Clos, Name: c.Name, IPC: ipc})
		}
		for i, g := range cur.Groups {
			p.Groups = append(p.Groups, m.periodGroup(g, prev.Groups[i].MemBytes, dt))
			p.TotalGbps += p.Groups[len(p.Groups)-1].BandwidthGbps
		}
		m.swap()
		return *p
	}

	// Slow path: population changed without a rebaseline — match by id,
	// treating absent baseline entries as zero (a fresh process's
	// cumulative counters start at zero, so the delta is its total).
	if m.prevCores == nil {
		m.prevCores = make(map[int]CoreSample, len(prev.Cores))
		m.prevGroups = make(map[int]GroupSample, len(prev.Groups))
	} else {
		clear(m.prevCores)
		clear(m.prevGroups)
	}
	for _, c := range prev.Cores {
		m.prevCores[c.Core] = c
	}
	for _, c := range cur.Cores {
		pc := m.prevCores[c.Core]
		di := c.Instructions - pc.Instructions
		dc := c.Cycles - pc.Cycles
		ipc := 0.0
		if dc > 0 {
			ipc = di / dc
		}
		p.Cores = append(p.Cores, PeriodCore{Core: c.Core, Clos: c.Clos, Name: c.Name, IPC: ipc})
	}
	for _, g := range prev.Groups {
		m.prevGroups[g.Clos] = g
	}
	for _, g := range cur.Groups {
		p.Groups = append(p.Groups, m.periodGroup(g, m.prevGroups[g.Clos].MemBytes, dt))
		p.TotalGbps += p.Groups[len(p.Groups)-1].BandwidthGbps
	}
	m.swap()
	return *p
}

// periodGroup converts one cumulative group reading to its per-period
// form given the baseline traffic counter.
func (m *Meter) periodGroup(g GroupSample, prevMemBytes, dt float64) PeriodGroup {
	bw := 0.0
	if dt > 0 {
		bw = (g.MemBytes - prevMemBytes) * 8 / dt / 1e9
	}
	return PeriodGroup{
		Clos:           g.Clos,
		CBM:            g.CBM,
		OccupancyBytes: g.OccupancyBytes,
		BandwidthGbps:  bw,
	}
}

// aligned reports whether the current reading matches the baseline
// entry-for-entry by core and CLOS id.
func (m *Meter) aligned() bool {
	if len(m.cur.Cores) != len(m.prev.Cores) || len(m.cur.Groups) != len(m.prev.Groups) {
		return false
	}
	for i := range m.cur.Cores {
		if m.cur.Cores[i].Core != m.prev.Cores[i].Core {
			return false
		}
	}
	for i := range m.cur.Groups {
		if m.cur.Groups[i].Clos != m.prev.Groups[i].Clos {
			return false
		}
	}
	return true
}

// swap makes the current reading the new baseline by exchanging the two
// buffers, so neither is copied and both backings are reused.
func (m *Meter) swap() {
	m.prev, m.cur = m.cur, m.prev
}

// GroupBW returns the bandwidth of the given CLOS in the period, or 0.
func (p Period) GroupBW(clos int) float64 {
	for _, g := range p.Groups {
		if g.Clos == clos {
			return g.BandwidthGbps
		}
	}
	return 0
}

// CoreIPC returns the IPC of the given core in the period, or 0.
func (p Period) CoreIPC(core int) float64 {
	for _, c := range p.Cores {
		if c.Core == core {
			return c.IPC
		}
	}
	return 0
}

// ClosMeanIPC returns the mean IPC over cores assigned to clos, or 0.
func (p Period) ClosMeanIPC(clos int) float64 {
	var sum float64
	var n int
	for _, c := range p.Cores {
		if c.Clos == clos {
			sum += c.IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
