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
// be substituted without touching any policy code. A counter reading is
// the simulator's sim.Snapshot, already RDT-shaped: per-core retired
// instructions and cycles, and per CLOS the mask (CAT), occupancy (CMT)
// and cumulative traffic (MBM); a hardware backend fills it field for
// field from the core PMCs and the RDT MSRs. Meter (meter.go) turns two
// readings into a monitoring period. FS (fs.go) additionally exposes the
// emulation through resctrl's file paths and text formats, so the
// substrate can be driven exactly like /sys/fs/resctrl.
package resctrl

import (
	"fmt"

	"dicer/internal/sim"
)

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
	// Counters reads all monitoring counters into a fresh snapshot: the
	// simulator's reading, which a hardware backend fills field for
	// field from the core PMCs and the CMT/MBM counters.
	Counters() sim.Snapshot
}

// Emu implements System over the discrete-time simulator.
type Emu struct {
	r      *sim.Runner
	hasMBA bool
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

// Counters implements System with a fresh snapshot: it shares no
// backing array with earlier readings, so callers may keep it.
func (e *Emu) Counters() sim.Snapshot { return e.r.Snapshot() }

var _ System = (*Emu)(nil)
