package resctrl

import "dicer/internal/sim"

// Meter converts the cumulative counters a System exposes into per-period
// readings — exactly what a userspace controller does with RDT: read the
// MSRs, subtract the previous reading, divide by the period.
//
// Sampling is allocation-free in steady state: the Meter owns the backing
// arrays of the Period it returns and of its two readings, which an Emu's
// runner fills in place, and reuses them every call. A returned Period is
// therefore valid only until the next Sample or Rebaseline on the same
// Meter — exactly the lifetime of a monitoring period. Callers that need
// a reading to outlive its period must copy the Cores and Groups slices.
type Meter struct {
	sys  System
	prev sim.Snapshot // baseline reading (Meter-owned backing)
	cur  sim.Snapshot // current reading (Meter-owned backing)
	out  Period       // reused backing for the returned Period

	// Baseline lookups for a population that changed between samples
	// without a Rebaseline; lazily allocated, reused after.
	prevCores map[int]sim.CoreCounters // by core id
	prevBytes map[int]float64          // cumulative traffic by CLOS id
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

// read fills c with the current counters. Over an Emu the runner fills
// c in place, reusing its slices, and estimates occupancy only when
// occupancy is set; any other System, such as the chaos layer whose
// reads advance its fault clock, is read through Counters.
func (m *Meter) read(c *sim.Snapshot, occupancy bool) {
	e, ok := m.sys.(*Emu)
	switch {
	case !ok:
		*c = m.sys.Counters()
	case occupancy:
		e.r.SnapshotInto(c)
	default:
		e.r.CountersInto(c)
	}
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
// redo anyway.
func (m *Meter) Rebaseline() {
	m.read(&m.prev, false)
}

// Sample reads the counters, returns the delta since the previous Sample
// (or since construction), and advances the baseline. The returned
// Period's slices are Meter-owned and reused by the next Sample.
//
// Each entry is matched to its baseline by index while the monitored
// population is unchanged since the baseline (same cores and CLOS in the
// same order — the common case, since population changes rebaseline),
// and by id otherwise, an absent baseline entry counting as zero: a
// fresh process's cumulative counters start at zero, so its delta is its
// total.
func (m *Meter) Sample() Period {
	m.read(&m.cur, true)
	cur, prev := &m.cur, &m.prev
	byID := !m.aligned()
	if byID {
		m.indexBaseline()
	}
	dt := cur.Time - prev.Time
	p := &m.out
	p.Seconds = dt
	p.TotalGbps = 0
	p.Cores = p.Cores[:0]
	p.Groups = p.Groups[:0]
	for i, c := range cur.Cores {
		var pc sim.CoreCounters
		if byID {
			pc = m.prevCores[c.Core]
		} else {
			pc = prev.Cores[i]
		}
		di := c.Instructions - pc.Instructions
		dc := c.Cycles - pc.Cycles
		ipc := 0.0
		if dc > 0 {
			ipc = di / dc
		}
		p.Cores = append(p.Cores, PeriodCore{Core: c.Core, Clos: c.Clos, Name: c.Name, IPC: ipc})
	}
	for i, g := range cur.Clos {
		var prevBytes float64
		if byID {
			prevBytes = m.prevBytes[g.Clos]
		} else {
			prevBytes = prev.Clos[i].MemBytes
		}
		bw := 0.0
		if dt > 0 {
			bw = (g.MemBytes - prevBytes) * 8 / dt / 1e9
		}
		p.Groups = append(p.Groups, PeriodGroup{Clos: g.Clos, CBM: g.Mask, OccupancyBytes: g.OccupancyBytes, BandwidthGbps: bw})
		p.TotalGbps += bw
	}
	// The current reading becomes the baseline: exchange the two
	// buffers, so neither is copied and both backings are reused.
	m.prev, m.cur = m.cur, m.prev
	return *p
}

// aligned reports whether the current reading matches the baseline
// entry-for-entry by core and CLOS id.
func (m *Meter) aligned() bool {
	if len(m.cur.Cores) != len(m.prev.Cores) || len(m.cur.Clos) != len(m.prev.Clos) {
		return false
	}
	for i := range m.cur.Cores {
		if m.cur.Cores[i].Core != m.prev.Cores[i].Core {
			return false
		}
	}
	for i := range m.cur.Clos {
		if m.cur.Clos[i].Clos != m.prev.Clos[i].Clos {
			return false
		}
	}
	return true
}

// indexBaseline fills the by-id baseline lookups.
func (m *Meter) indexBaseline() {
	if m.prevCores == nil {
		m.prevCores = make(map[int]sim.CoreCounters, len(m.prev.Cores))
		m.prevBytes = make(map[int]float64, len(m.prev.Clos))
	} else {
		clear(m.prevCores)
		clear(m.prevBytes)
	}
	for _, c := range m.prev.Cores {
		m.prevCores[c.Core] = c
	}
	for _, g := range m.prev.Clos {
		m.prevBytes[g.Clos] = g.MemBytes
	}
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
