// Package ext implements the extensions the DICER paper sketches as future
// work in §6, built on top of the core controller:
//
//   - DicerMBA: explicit, dynamic memory-bandwidth control with Intel MBA.
//     When the link saturates, instead of only re-sampling cache
//     partitions, the controller additionally throttles the best-effort
//     CLOS with an AIMD loop until total bandwidth returns under the
//     threshold — protecting the HP from saturation that no cache
//     partition can fix.
//
//   - BEManager: dynamic management of the number of co-located BEs. When
//     saturation persists even at the controller's best-known allocation,
//     the manager parks BE cores one at a time (thread packing); when the
//     link has headroom it unparks them. Like DICER itself it is fully
//     application-transparent: it acts on bandwidth counters only.
//
//   - OverlapStatic: overlapping cache partitions (HP exclusive high ways
//     plus a region shared with the BEs), the allocation-shape question
//     §6 raises. Provided as a static policy for the ablation benches.
package ext

import (
	"fmt"

	"dicer/internal/cache"
	"dicer/internal/core"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// CoreParker is the thread-packing actuator: park a core to suspend its
// process, unpark to resume. resctrl.Emu satisfies it; on real hardware an
// implementation would move the task to a housekeeping cpuset.
type CoreParker interface {
	ParkCore(core int) error
	UnparkCore(core int) error
	CoreParked(core int) bool
}

// ---------------------------------------------------------------------------
// DICER + MBA

// The AIMD bandwidth-throttle loop's fixed parameters, conservative for
// the paper's 68.3 Gbps link. The loop steers total bandwidth under the
// DICER saturation threshold.
const (
	// mbaFloorGbps is the lowest BE cap AIMD may impose.
	mbaFloorGbps = 5
	// mbaDecrease multiplies the BE cap on saturation.
	mbaDecrease = 0.8
	// mbaIncreaseGbps is added to the BE cap each unsaturated period.
	mbaIncreaseGbps = 2
)

// DicerMBA wraps the DICER controller with an MBA throttle on the BE
// class. It implements policy.Policy.
type DicerMBA struct {
	ctl    *core.Controller
	target float64 // Gbps the loop steers total bandwidth under

	cap float64 // current BE cap in Gbps; 0 = uncapped
}

// NewDicerMBA builds the combined controller; the throttle's target is
// the DICER config's saturation threshold (BWThresholdGbps).
func NewDicerMBA(dicer core.Config) (*DicerMBA, error) {
	if dicer.BWThresholdGbps < mbaFloorGbps {
		return nil, fmt.Errorf("ext: DICER threshold %g below the MBA floor %d Gbps", dicer.BWThresholdGbps, mbaFloorGbps)
	}
	ctl, err := core.New(dicer)
	if err != nil {
		return nil, err
	}
	return &DicerMBA{ctl: ctl, target: dicer.BWThresholdGbps}, nil
}

// Name implements policy.Policy.
func (d *DicerMBA) Name() string { return "DICER+MBA" }

// Controller exposes the wrapped DICER controller (for tracing).
func (d *DicerMBA) Controller() *core.Controller { return d.ctl }

// BECapGbps returns the currently imposed BE bandwidth cap (0 = none).
func (d *DicerMBA) BECapGbps() float64 { return d.cap }

// Setup implements policy.Policy.
func (d *DicerMBA) Setup(sys resctrl.System) error {
	d.cap = 0
	if err := sys.SetMBACap(policy.BEClos, 0); err != nil {
		return err
	}
	return d.ctl.Setup(sys)
}

// Observe implements policy.Policy: run the cache controller, then adjust
// the BE bandwidth cap with AIMD.
func (d *DicerMBA) Observe(sys resctrl.System, p resctrl.Period) error {
	if err := d.ctl.Observe(sys, p); err != nil {
		return err
	}
	beBW := p.GroupBW(policy.BEClos)
	switch {
	case p.TotalGbps > d.target:
		// Multiplicative decrease from the observed BE consumption.
		base := d.cap
		if base <= 0 || base > beBW {
			base = beBW
		}
		d.cap = base * mbaDecrease
		if d.cap < mbaFloorGbps {
			d.cap = mbaFloorGbps
		}
	case d.cap > 0:
		// Additive increase while there is headroom.
		d.cap += mbaIncreaseGbps
		if d.cap >= d.target {
			d.cap = 0 // headroom regained: uncap
		}
	}
	return sys.SetMBACap(policy.BEClos, d.cap)
}

var _ policy.Policy = (*DicerMBA)(nil)

// ---------------------------------------------------------------------------
// BE-count manager

// The BE parking loop's fixed parameters.
const (
	// unparkFraction places the unpark threshold under the park
	// threshold (hysteresis).
	unparkFraction = 0.8
	// parkPatience is the consecutive-period requirement for action.
	parkPatience = 3
	// minActiveBEs bounds parking; at least this many BEs keep running.
	minActiveBEs = 1
)

// BEManager wraps an inner policy (normally the DICER controller) and
// additionally parks/unparks BE cores based on sustained link saturation.
// It implements policy.Policy; the System passed to it must also satisfy
// CoreParker.
type BEManager struct {
	inner policy.Policy
	// parkAbove / unparkBelow: park one BE after parkPatience
	// consecutive periods with total bandwidth above parkAbove, unpark
	// one after as many below unparkBelow.
	parkAbove   float64
	unparkBelow float64

	beCores []int // BE core ids, discovered at Setup
	parked  []int // stack of parked cores (last parked, first unparked)
	hotRun  int   // consecutive saturated periods
	coldRun int   // consecutive under-threshold periods
}

// NewBEManager wraps inner with BE-count management, parking above
// thresholdGbps (normally the DICER saturation threshold) and unparking
// below unparkFraction of it.
func NewBEManager(inner policy.Policy, thresholdGbps float64) (*BEManager, error) {
	if thresholdGbps <= 0 {
		return nil, fmt.Errorf("ext: non-positive park threshold %g", thresholdGbps)
	}
	if inner == nil {
		return nil, fmt.Errorf("ext: nil inner policy")
	}
	return &BEManager{inner: inner, parkAbove: thresholdGbps, unparkBelow: thresholdGbps * unparkFraction}, nil
}

// Name implements policy.Policy.
func (b *BEManager) Name() string { return b.inner.Name() + "+BEMGR" }

// ParkedBEs returns the number of currently parked BE cores.
func (b *BEManager) ParkedBEs() int { return len(b.parked) }

// Setup implements policy.Policy.
func (b *BEManager) Setup(sys resctrl.System) error {
	b.beCores = nil
	b.parked = nil
	b.hotRun = 0
	b.coldRun = 0
	for _, c := range sys.Counters().Cores {
		if c.Clos == policy.BEClos {
			b.beCores = append(b.beCores, c.Core)
		}
	}
	return b.inner.Setup(sys)
}

// Observe implements policy.Policy.
func (b *BEManager) Observe(sys resctrl.System, p resctrl.Period) error {
	if err := b.inner.Observe(sys, p); err != nil {
		return err
	}
	parker, ok := sys.(CoreParker)
	if !ok {
		return fmt.Errorf("ext: system %T cannot park cores", sys)
	}
	switch {
	case p.TotalGbps > b.parkAbove:
		b.hotRun++
		b.coldRun = 0
	case p.TotalGbps < b.unparkBelow:
		b.coldRun++
		b.hotRun = 0
	default:
		b.hotRun = 0
		b.coldRun = 0
	}
	if b.hotRun >= parkPatience && len(b.beCores)-len(b.parked) > minActiveBEs {
		// Park the highest-numbered still-active BE core.
		for i := len(b.beCores) - 1; i >= 0; i-- {
			c := b.beCores[i]
			if !parker.CoreParked(c) {
				if err := parker.ParkCore(c); err != nil {
					return err
				}
				b.parked = append(b.parked, c)
				break
			}
		}
		b.hotRun = 0
	}
	if b.coldRun >= parkPatience && len(b.parked) > 0 {
		c := b.parked[len(b.parked)-1]
		b.parked = b.parked[:len(b.parked)-1]
		if err := parker.UnparkCore(c); err != nil {
			return err
		}
		b.coldRun = 0
	}
	return nil
}

var _ policy.Policy = (*BEManager)(nil)

// ---------------------------------------------------------------------------
// Overlapping partitions

// OverlapStatic is a static allocation where the HP owns hpExclusive high
// ways outright and additionally shares overlapWays with the BEs:
//
//	HP mask: [overlap | exclusive]   (contiguous)
//	BE mask: [low ways ... overlap]  (contiguous)
//
// §6 asks whether such overlap can benefit some workloads; the ablation
// bench compares it against disjoint partitions of equal HP reach.
type OverlapStatic struct {
	HPExclusive int
	OverlapWays int
}

// Name implements policy.Policy.
func (o OverlapStatic) Name() string {
	return fmt.Sprintf("Overlap(%d+%d)", o.HPExclusive, o.OverlapWays)
}

// Setup implements policy.Policy.
func (o OverlapStatic) Setup(sys resctrl.System) error {
	total := sys.NumWays()
	if o.HPExclusive < 1 || o.OverlapWays < 0 ||
		o.HPExclusive+o.OverlapWays > total {
		return fmt.Errorf("ext: overlap %d+%d does not fit %d ways",
			o.HPExclusive, o.OverlapWays, total)
	}
	beWays := total - o.HPExclusive // BEs reach everything except HP's exclusive ways
	if beWays < 1 {
		return fmt.Errorf("ext: no ways left for BEs")
	}
	hpLow := total - o.HPExclusive - o.OverlapWays
	hpMask := cache.ContiguousMask(hpLow, o.HPExclusive+o.OverlapWays)
	beMask := cache.ContiguousMask(0, beWays)
	if err := sys.SetCBM(policy.HPClos, hpMask); err != nil {
		return err
	}
	return sys.SetCBM(policy.BEClos, beMask)
}

// Observe implements policy.Policy.
func (OverlapStatic) Observe(resctrl.System, resctrl.Period) error { return nil }

var _ policy.Policy = OverlapStatic{}
