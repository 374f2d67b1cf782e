// Package resctrl emulates the monitoring and allocation interface of
// Intel Resource Director Technology (RDT) as exposed by Linux through the
// resctrl filesystem and by the intel-cmt-cat library the DICER paper
// builds on (§3.3):
//
//   - CAT  (Cache Allocation Technology): per-CLOS capacity bit-masks.
//   - CMT  (Cache Monitoring Technology): per-group LLC occupancy.
//   - MBM  (Memory Bandwidth Monitoring): per-group memory traffic.
//   - MBA  (Memory Bandwidth Allocation): per-CLOS bandwidth caps
//     (the paper's server lacked MBA; we provide it for the §6 extension).
//
// The package defines the System interface that the DICER controller and
// the baseline policies are written against; Emu implements it on top of
// the simulator in internal/sim, and a real-hardware implementation could
// be substituted without touching any policy code. FS (fs.go) additionally
// exposes the emulation through resctrl's file paths and text formats, so
// the substrate can be driven exactly like /sys/fs/resctrl.
package resctrl

import (
	"fmt"

	"dicer/internal/sim"
)

// CoreSample is a per-core performance-counter reading.
type CoreSample struct {
	Core         int
	Clos         int
	Name         string // attached workload name (reporting aid)
	Instructions float64
	Cycles       float64
}

// IPC returns instructions per cycle for the sample window.
func (c CoreSample) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.Instructions / c.Cycles
}

// GroupSample is a per-CLOS monitoring reading.
type GroupSample struct {
	Clos           int
	CBM            uint64
	OccupancyBytes float64 // CMT: instantaneous LLC occupancy
	MemBytes       float64 // MBM: cumulative memory traffic
}

// Counters is a consistent reading of every monitored quantity.
type Counters struct {
	Time   float64 // seconds since boot
	Cores  []CoreSample
	Groups []GroupSample
}

// System is the hardware-facing interface policies are written against.
// Implementations: *Emu (simulator-backed, below); a Linux resctrl backend
// would satisfy it on real hardware.
type System interface {
	// NumWays returns the number of allocatable LLC ways.
	NumWays() int
	// NumClos returns the number of classes of service.
	NumClos() int
	// SetCBM installs a capacity bit-mask for a CLOS. Masks must be
	// non-zero, contiguous, and within NumWays bits (CAT hardware rules).
	SetCBM(clos int, mask uint64) error
	// CBM reads back the current mask of a CLOS.
	CBM(clos int) uint64
	// SetMBACap sets a per-CLOS memory bandwidth cap in Gbps; 0 uncaps.
	// Systems without MBA return an error.
	SetMBACap(clos int, gbps float64) error
	// LinkCapacityGbps returns the peak memory-link bandwidth, used to
	// convert MBA percent-of-peak throttles to absolute caps.
	LinkCapacityGbps() float64
	// Counters reads all monitoring counters.
	Counters() Counters
}

// CountersReader is an optional System extension: implementations fill a
// caller-owned Counters in place, reusing its slices, instead of
// allocating a fresh reading per call. Meter prefers it when available,
// which keeps per-period sampling allocation-free on the simulator-backed
// substrate. The filled Counters aliases no implementation-owned state.
type CountersReader interface {
	CountersInto(*Counters)
}

// Emu implements System over the discrete-time simulator.
type Emu struct {
	r      *sim.Runner
	hasMBA bool
	snap   sim.Snapshot // scratch reused by CountersInto
}

// NewEmu wraps a simulator runner. withMBA controls whether SetMBACap is
// available (the paper's Broadwell server lacked MBA, so experiments that
// reproduce the paper construct the emulation without it).
func NewEmu(r *sim.Runner, withMBA bool) *Emu {
	return &Emu{r: r, hasMBA: withMBA}
}

// Runner exposes the underlying simulator (experiments need to advance
// time; a real backend has no equivalent — time advances by itself).
func (e *Emu) Runner() *sim.Runner { return e.r }

// NumWays implements System.
func (e *Emu) NumWays() int { return e.r.Machine().LLCWays }

// NumClos implements System.
func (e *Emu) NumClos() int { return e.r.NumClos() }

// SetCBM implements System.
func (e *Emu) SetCBM(clos int, mask uint64) error { return e.r.SetMask(clos, mask) }

// CBM implements System.
func (e *Emu) CBM(clos int) uint64 { return e.r.Mask(clos) }

// SetMBACap implements System.
func (e *Emu) SetMBACap(clos int, gbps float64) error {
	if !e.hasMBA {
		return fmt.Errorf("resctrl: platform has no MBA support")
	}
	return e.r.SetBWCap(clos, gbps)
}

// LinkCapacityGbps implements System.
func (e *Emu) LinkCapacityGbps() float64 { return e.r.Machine().Link.CapacityGBps }

// MoveCore reassigns the process on a core to another class of service —
// the emulated write of a PID into a different resctrl group's tasks
// file. The process keeps its execution position and counters; the
// multi-HP controller's re-clustering path uses this. CoreMover
// (below) is the optional-capability interface controllers probe for.
func (e *Emu) MoveCore(core, clos int) error { return e.r.SetClos(core, clos) }

// CoreMover is an optional System extension: systems that can move a
// running core between CLOS groups (all resctrl-style substrates can,
// via the tasks file) implement it. Controllers that re-cluster probe
// for it with a type assertion and hold the grouping static when absent.
type CoreMover interface {
	MoveCore(core, clos int) error
}

// ParkCore suspends the process on a core (thread packing). This is not an
// RDT capability — it models the OS-scheduler actuator that the paper's §6
// BE-count extension relies on; internal/ext declares the CoreParker
// interface that this method satisfies.
func (e *Emu) ParkCore(core int) error { return e.r.SetCoreParked(core, true) }

// UnparkCore resumes the process on a core.
func (e *Emu) UnparkCore(core int) error { return e.r.SetCoreParked(core, false) }

// CoreParked reports whether a core is parked.
func (e *Emu) CoreParked(core int) bool { return e.r.CoreParked(core) }

// Counters implements System.
func (e *Emu) Counters() Counters {
	var out Counters
	e.CountersInto(&out)
	return out
}

// CountersInto implements CountersReader: it fills out with a fresh
// reading, reusing out's slices when their capacity suffices. The
// simulator snapshot behind it is Emu-owned scratch; the filled Counters
// shares nothing with it.
func (e *Emu) CountersInto(out *Counters) {
	e.r.SnapshotInto(&e.snap)
	e.convert(out)
}

// baselineInto is CountersInto without the occupancy estimate: every
// OccupancyBytes is zero and no share solve runs.
func (e *Emu) baselineInto(out *Counters) {
	e.r.CountersInto(&e.snap)
	e.convert(out)
}

// convert copies the scratch snapshot into out.
func (e *Emu) convert(out *Counters) {
	out.Time = e.snap.Time
	out.Cores = out.Cores[:0]
	out.Groups = out.Groups[:0]
	for _, c := range e.snap.Cores {
		out.Cores = append(out.Cores, CoreSample{
			Core:         c.Core,
			Clos:         c.Clos,
			Name:         c.Name,
			Instructions: c.Instructions,
			Cycles:       c.Cycles,
		})
	}
	for _, g := range e.snap.Clos {
		out.Groups = append(out.Groups, GroupSample{
			Clos:           g.Clos,
			CBM:            g.Mask,
			OccupancyBytes: g.OccupancyBytes,
			MemBytes:       g.MemBytes,
		})
	}
}

var (
	_ System         = (*Emu)(nil)
	_ CountersReader = (*Emu)(nil)
)
