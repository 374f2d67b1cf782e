package ext

import (
	"fmt"

	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Heracles is a simplified reimplementation of the cache/core subsystem of
// Heracles (Lo et al., ISCA'15), the paper's closest application-assisted
// related work. Unlike DICER it is NOT transparent: it must be told the
// HP's performance target — the alone-run IPC reference and the SLO
// fraction — information DICER explicitly refuses to depend on. It exists
// as a comparison point: how much does the extra information buy?
//
// Control loop (per monitoring period), following Heracles' slack logic:
//
//	slack = (hpIPC - target) / target, target = SLO * refIPC
//	slack <  0          grow the HP partition by GrowWays
//	slack < DisableSlack (deeply negative): park all BE cores
//	slack > ShrinkSlack  shrink the HP partition by one way
//
// Parked BEs return one per period once slack stays above ReenableSlack.
type Heracles struct {
	// RefIPCAlone is the HP's alone-run IPC, provided by the operator or
	// the application (the information DICER does without).
	RefIPCAlone float64
	// SLO is the target fraction of RefIPCAlone (e.g. 0.95).
	SLO float64
	// GrowWays is the partition growth step on negative slack.
	GrowWays int
	// DisableSlack (< 0) is the slack below which all BEs are parked.
	DisableSlack float64
	// ShrinkSlack (> 0) is the slack above which the HP gives up a way.
	ShrinkSlack float64
	// ReenableSlack (> 0) is the slack above which parked BEs return.
	ReenableSlack float64
	// MinHPWays/MinBEWays bound the moving partition.
	MinHPWays int
	MinBEWays int

	curHP   int
	beCores []int
	parked  []int
}

// NewHeracles builds the controller with the Heracles paper's 5%/10%
// slack bands.
func NewHeracles(refIPCAlone, slo float64) (*Heracles, error) {
	if refIPCAlone <= 0 {
		return nil, fmt.Errorf("ext: heracles needs a positive reference IPC, got %g", refIPCAlone)
	}
	if slo <= 0 || slo > 1 {
		return nil, fmt.Errorf("ext: heracles SLO %g outside (0,1]", slo)
	}
	return &Heracles{
		RefIPCAlone:   refIPCAlone,
		SLO:           slo,
		GrowWays:      2,
		DisableSlack:  -0.10,
		ShrinkSlack:   0.10,
		ReenableSlack: 0.05,
		MinHPWays:     1,
		MinBEWays:     1,
	}, nil
}

// Name implements policy.Policy.
func (h *Heracles) Name() string { return "Heracles" }

// Setup implements policy.Policy: like DICER, start conservatively with
// the largest HP partition.
func (h *Heracles) Setup(sys resctrl.System) error {
	h.beCores = nil
	h.parked = nil
	for _, c := range sys.Counters().Cores {
		if c.Clos == policy.BEClos {
			h.beCores = append(h.beCores, c.Core)
		}
	}
	h.curHP = sys.NumWays() - h.MinBEWays
	return policy.SplitWays(sys, h.curHP)
}

// Observe implements policy.Policy.
func (h *Heracles) Observe(sys resctrl.System, p resctrl.Period) error {
	target := h.SLO * h.RefIPCAlone
	slack := (p.ClosMeanIPC(policy.HPClos) - target) / target

	parker, canPark := sys.(CoreParker)
	switch {
	case slack < h.DisableSlack && canPark:
		// Deep QoS violation: stop every BE immediately (Heracles'
		// "disable" state) and take the cache back.
		for _, c := range h.beCores {
			if !parker.CoreParked(c) {
				if err := parker.ParkCore(c); err != nil {
					return err
				}
				h.parked = append(h.parked, c)
			}
		}
		h.curHP = sys.NumWays() - h.MinBEWays
		return policy.SplitWays(sys, h.curHP)
	case slack < 0:
		grown := h.curHP + h.GrowWays
		if max := sys.NumWays() - h.MinBEWays; grown > max {
			grown = max
		}
		if grown != h.curHP {
			h.curHP = grown
			return policy.SplitWays(sys, h.curHP)
		}
		return nil
	case slack > h.ReenableSlack && len(h.parked) > 0:
		// Healthy again: let one BE back in per period.
		c := h.parked[len(h.parked)-1]
		h.parked = h.parked[:len(h.parked)-1]
		if err := parker.UnparkCore(c); err != nil {
			return err
		}
		return nil
	case slack > h.ShrinkSlack:
		if h.curHP > h.MinHPWays {
			h.curHP--
			return policy.SplitWays(sys, h.curHP)
		}
	}
	return nil
}

var _ policy.Policy = (*Heracles)(nil)
