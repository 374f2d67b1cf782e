// Package app models applications as the co-location simulator sees them:
// a sequence of phases, each with an instruction budget, a base CPI (all
// stall sources except LLC misses), an LLC access rate (APKI — accesses per
// kilo-instruction), and an analytic miss-ratio curve over cache capacity.
//
// The model is deliberately the minimal one that reproduces the phenomena
// the DICER paper builds on:
//
//   - IPC as a function of allocated LLC capacity (via the miss curve),
//   - memory-bandwidth demand as a function of IPC and miss ratio,
//   - sensitivity of IPC to memory-latency inflation (bandwidth saturation),
//   - phase changes that shift cache requirements mid-run.
//
// Performance model, per phase:
//
//	CPI(c, f) = BaseCPI + (APKI/1000) * missRatio(c) * MemLat * f
//
// where c is available cache bytes and f the memory-latency inflation
// factor from internal/membw. Bandwidth demand follows from the miss rate:
//
//	bytes/s = IPS * (APKI/1000) * missRatio(c) * LineBytes * WBFactor
//
// WBFactor accounts for write-back traffic accompanying fills.
package app

import (
	"fmt"

	"dicer/internal/machine"
	"dicer/internal/mrc"
)

// WBFactor inflates fill traffic to account for dirty write-backs. 1.5 is a
// typical read:write mix for SPEC-like workloads.
const WBFactor = 1.5

// Phase is one execution phase of an application.
type Phase struct {
	Name         string
	Instructions float64 // instruction budget of the phase
	BaseCPI      float64 // CPI from everything except LLC misses
	APKI         float64 // LLC accesses per kilo-instruction
	Curve        mrc.Curve
}

// Validate reports configuration errors.
func (p Phase) Validate() error {
	if p.Instructions <= 0 {
		return fmt.Errorf("app: phase %q has non-positive instruction budget", p.Name)
	}
	if p.BaseCPI <= 0 {
		return fmt.Errorf("app: phase %q has non-positive base CPI", p.Name)
	}
	if p.APKI < 0 {
		return fmt.Errorf("app: phase %q has negative APKI", p.Name)
	}
	return nil
}

// Profile is a complete application description.
type Profile struct {
	Name   string
	Suite  string // "spec2006" or "parsec3"
	Class  Class  // qualitative behaviour class (documentation + sampling)
	Phases []Phase
}

// Class is a coarse behavioural label used for workload sampling and
// reporting; it does not influence simulation.
type Class string

// Behaviour classes assigned to catalog entries.
const (
	ClassStream  Class = "stream"  // bandwidth-bound, low cache sensitivity
	ClassCache   Class = "cache"   // IPC strongly dependent on LLC share
	ClassCompute Class = "compute" // core-bound, light LLC traffic
	ClassMixed   Class = "mixed"   // phase-dependent behaviour
)

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("app: empty profile name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("app: profile %q has no phases", p.Name)
	}
	for _, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("profile %q: %w", p.Name, err)
		}
	}
	return nil
}

// MaxFootprint returns the largest cacheable footprint over all phases.
func (p Profile) MaxFootprint() float64 {
	var m float64
	for _, ph := range p.Phases {
		if f := ph.Curve.Footprint(); f > m {
			m = f
		}
	}
	return m
}

// Perf is the instantaneous operating point of a process.
type Perf struct {
	IPC         float64 // instructions per cycle
	MissRatio   float64 // LLC miss ratio at the offered capacity
	MPKI        float64 // LLC misses per kilo-instruction
	BytesPerSec float64 // memory traffic demand
	OccupancyB  float64 // bytes the process keeps resident at this capacity
}

// PhasePerf evaluates the performance model for a phase on machine m with
// cacheBytes of LLC available, memory-latency inflation factor, and a
// base-CPI co-location factor (machine.CoLocFactor; 1 when running alone).
func PhasePerf(m machine.Machine, ph Phase, cacheBytes, inflation, baseFactor float64) Perf {
	p := PhasePerfMissRef(&m, &ph, ph.Curve.MissRatio(cacheBytes), inflation, baseFactor)
	p.OccupancyB = ph.Curve.OccupancyDemand(cacheBytes)
	return p
}

// PhasePerfMissRef evaluates the performance model with a precomputed
// miss ratio, skipping both curve walks (OccupancyB is left zero). The
// miss ratio of a phase depends only on the offered capacity, so hot
// paths that re-evaluate the model at many inflation factors (the
// bandwidth fixed point in internal/sim) compute it once and call this
// for every factor; the arithmetic is PhasePerf's, term for term. The
// machine and phase are taken by pointer: together they are ~160 bytes,
// and per-step hot loops (the simulator advances every process every
// Step) call this to avoid copying them on every evaluation. The
// arguments are read, never written.
func PhasePerfMissRef(m *machine.Machine, ph *Phase, miss, inflation, baseFactor float64) Perf {
	mpki := ph.APKI * miss
	cpi := ph.BaseCPI*baseFactor + mpki/1000*m.MemLatCycles*inflation
	ipc := 1 / cpi
	ips := ipc * m.CyclesPerSecond()
	bytes := ips * mpki / 1000 * float64(m.LineBytes) * WBFactor
	return Perf{
		IPC:         ipc,
		MissRatio:   miss,
		MPKI:        mpki,
		BytesPerSec: bytes,
	}
}

// Proc is a running instance of a Profile. The simulator restarts the
// application when it completes, matching the paper's methodology ("when an
// application finishes, it is restarted until all of them have executed at
// least once").
type Proc struct {
	Profile Profile

	phase      int
	phaseInstr float64 // instructions retired within the current phase

	// Cumulative counters (survive restarts).
	Instructions float64
	Cycles       float64
	MemBytes     float64
	Completions  int
}

// NewProc creates a runnable instance of p. It panics if p is invalid;
// catalog profiles are validated by tests.
func NewProc(p Profile) *Proc {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Proc{Profile: p}
}

// Phase returns the currently executing phase.
func (pr *Proc) Phase() Phase { return pr.Profile.Phases[pr.phase] }

// PhaseRef returns a pointer to the currently executing phase. Hot paths
// use it instead of Phase to avoid copying the ~100-byte Phase struct;
// callers must treat the target as read-only and must not retain it past
// the next Advance (which may cross a phase boundary).
func (pr *Proc) PhaseRef() *Phase { return &pr.Profile.Phases[pr.phase] }

// PhaseIndex returns the index of the current phase.
func (pr *Proc) PhaseIndex() int { return pr.phase }

// PhaseProgress returns the fraction of the current phase's instruction
// budget already retired, in [0,1). Phase-hint consumers (the multi-HP
// re-clustering policy) use it to expose the *next* phase's cache
// behaviour shortly before the boundary, Com-CAS style.
func (pr *Proc) PhaseProgress() float64 {
	return pr.phaseInstr / pr.Profile.Phases[pr.phase].Instructions
}

// Perf evaluates the instantaneous performance of the current phase.
func (pr *Proc) Perf(m machine.Machine, cacheBytes, inflation, baseFactor float64) Perf {
	return PhasePerf(m, pr.Phase(), cacheBytes, inflation, baseFactor)
}

// Advance runs the process for dt seconds at a fixed operating point
// (cacheBytes, inflation), crossing phase boundaries and restarting as
// needed. It returns the instructions retired during the interval.
func (pr *Proc) Advance(m machine.Machine, cacheBytes, inflation, baseFactor, dt float64) float64 {
	return pr.advance(&m, cacheBytes, -1, inflation, baseFactor, dt)
}

// AdvanceMissRef is Advance with a precomputed miss ratio for the
// process's current phase at cacheBytes (callers that already solved the
// cache sharing hold it) and the machine taken by pointer, for per-step
// callers (the simulator advances every process every Step and the struct
// copy would dominate). The machine is read, never written. Later phases
// entered during the interval evaluate their own curves as usual.
func (pr *Proc) AdvanceMissRef(m *machine.Machine, cacheBytes, miss, inflation, baseFactor, dt float64) float64 {
	return pr.advance(m, cacheBytes, miss, inflation, baseFactor, dt)
}

func (pr *Proc) advance(m *machine.Machine, cacheBytes, miss, inflation, baseFactor, dt float64) float64 {
	cps := m.CyclesPerSecond()
	cyclesLeft := dt * cps
	var retired float64
	for cyclesLeft > 1e-9 {
		ph := &pr.Profile.Phases[pr.phase]
		if miss < 0 {
			miss = ph.Curve.MissRatio(cacheBytes)
		}
		perf := PhasePerfMissRef(m, ph, miss, inflation, baseFactor)
		phaseRemaining := ph.Instructions - pr.phaseInstr
		// Cycles needed to finish the phase at the current CPI.
		cpi := 1 / perf.IPC
		needed := phaseRemaining * cpi
		step := cyclesLeft
		finishes := needed <= cyclesLeft
		if finishes {
			step = needed
		}
		instr := step / cpi
		pr.phaseInstr += instr
		pr.Instructions += instr
		pr.Cycles += step
		pr.MemBytes += perf.BytesPerSec * (step / cps)
		retired += instr
		cyclesLeft -= step
		if finishes {
			pr.phase++
			pr.phaseInstr = 0
			if pr.phase >= len(pr.Profile.Phases) {
				pr.phase = 0
				pr.Completions++
			}
			miss = -1 // next phase evaluates its own curve
		}
	}
	return retired
}

// InLockstep reports whether pr and o run the same phase table (one
// backing array) from the same phase position with the same cumulative
// counters. Two such processes advanced at one operating point stay in
// lockstep, so a simulator may advance one and copy it to the other.
func (pr *Proc) InLockstep(o *Proc) bool {
	a, b := pr.Profile.Phases, o.Profile.Phases
	return len(a) == len(b) && &a[0] == &b[0] &&
		pr.phase == o.phase && pr.phaseInstr == o.phaseInstr &&
		pr.Instructions == o.Instructions && pr.Cycles == o.Cycles &&
		pr.MemBytes == o.MemBytes && pr.Completions == o.Completions
}

// CopyProgress sets pr's phase position and cumulative counters to o's:
// the advance a process in lockstep with pr has just made.
func (pr *Proc) CopyProgress(o *Proc) {
	pr.phase, pr.phaseInstr = o.phase, o.phaseInstr
	pr.Instructions, pr.Cycles, pr.MemBytes, pr.Completions = o.Instructions, o.Cycles, o.MemBytes, o.Completions
}

// IPC returns the cumulative IPC since the last Reset.
func (pr *Proc) IPC() float64 {
	if pr.Cycles == 0 {
		return 0
	}
	return pr.Instructions / pr.Cycles
}
