// Package core implements DICER, the dynamic cache-partitioning controller
// of the paper (§3, Listings 1–3). DICER co-locates one high-priority (HP)
// application with best-effort (BE) applications and, once per monitoring
// period, adapts the way-based LLC partition between them:
//
//   - It starts exactly like Cache-Takeover: HP owns all but one way
//     (CT_Favoured is assumed true).
//   - If total memory bandwidth exceeds a threshold, the link is
//     saturated: the workload is CT-Thwarted, and DICER *samples*
//     decreasing HP allocations to find the one with the highest HP IPC
//     (optimal_allocation / IPC_opt), then enforces it.
//   - Otherwise it *optimises*: a bandwidth spike against the geometric
//     mean of the previous three periods signals a phase change (Eq. 2)
//     and triggers a reset; stable IPC (Eq. 3) lets DICER shrink HP by one
//     way in favour of the BEs; improved IPC holds; degraded IPC resets.
//   - A *reset* re-applies the best-known allocation (CT's for CT-Favoured
//     workloads, optimal_allocation for CT-Thwarted ones) and validates it
//     over one monitoring period, rolling back or re-sampling as Listing 3
//     prescribes.
//
// The same state machine scales to M HP applications: controller.go runs
// one copy per CLOS group of an LFOC-style clustering plan, and the
// paper's single-HP controller is the one-group case on the two-CLOS
// split (New). The controller is written against the resctrl.System
// interface and holds no simulator state: it sees only per-period IPC and
// bandwidth readings, the same observables a production deployment reads
// from RDT counters.
package core

import (
	"fmt"

	"dicer/internal/policy"
)

// Config holds DICER's tunables. Defaults (DefaultConfig) are the paper's
// Table 1 values.
type Config struct {
	// PeriodSec is the monitoring-period length T. The controller itself
	// is driven externally once per period; this value is used only for
	// reporting.
	PeriodSec float64
	// BWThresholdGbps is MemBW_threshold: total memory bandwidth above
	// which the link counts as saturated (Table 1: 50 Gbps).
	BWThresholdGbps float64
	// PhaseThreshold is Eq. 2's spike factor over the geometric mean of
	// the previous three periods' HP bandwidth (Table 1: 30 %).
	PhaseThreshold float64
	// StabilityAlpha is Eq. 3's a: IPC within ±a of the previous period
	// counts as stable (Table 1: 5 %).
	StabilityAlpha float64
	// NearOptTolerance decides "performance_near_opt" in the CT-T reset
	// validation: IPC within this fraction below IPC_opt passes.
	NearOptTolerance float64
	// SampleStep is the way decrement between successive sampling
	// allocations (Listing 1's decreasing partition sizes).
	SampleStep int
	// MinHPWays / MinBEWays bound the moving partition. CAT requires at
	// least one way per mask.
	MinHPWays int
	MinBEWays int

	// DisablePhaseDetection turns off Eq. 2 (ablation: how much does the
	// phase detector contribute?). Phase-driven IPC drops then reach the
	// reset path only through the performance check.
	DisablePhaseDetection bool
	// DisableSaturationHandling turns off the bandwidth-saturation check
	// and allocation sampling, reducing DICER to a pure IPC-driven
	// partition optimiser — approximately the DCP-QoS scheme the paper
	// cites as lacking saturation support (ablation).
	DisableSaturationHandling bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		PeriodSec:        1.0,
		BWThresholdGbps:  50,
		PhaseThreshold:   0.30,
		StabilityAlpha:   0.05,
		NearOptTolerance: 0.05,
		SampleStep:       2,
		MinHPWays:        1,
		MinBEWays:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PeriodSec <= 0 {
		return fmt.Errorf("dicer: non-positive period %g", c.PeriodSec)
	}
	if c.BWThresholdGbps <= 0 {
		return fmt.Errorf("dicer: non-positive bandwidth threshold %g", c.BWThresholdGbps)
	}
	if c.PhaseThreshold <= 0 {
		return fmt.Errorf("dicer: non-positive phase threshold %g", c.PhaseThreshold)
	}
	if c.StabilityAlpha <= 0 || c.StabilityAlpha >= 1 {
		return fmt.Errorf("dicer: stability alpha %g outside (0,1)", c.StabilityAlpha)
	}
	if c.NearOptTolerance <= 0 || c.NearOptTolerance >= 1 {
		return fmt.Errorf("dicer: near-opt tolerance %g outside (0,1)", c.NearOptTolerance)
	}
	if c.SampleStep < 1 {
		return fmt.Errorf("dicer: sample step %d < 1", c.SampleStep)
	}
	if c.MinHPWays < 1 || c.MinBEWays < 1 {
		return fmt.Errorf("dicer: minimum ways must be >= 1 (hp %d, be %d)", c.MinHPWays, c.MinBEWays)
	}
	return nil
}

// state is a group's per-period mode.
type state uint8

const (
	stOptimise state = iota // Listing 2: allocation_optimisation
	stSampling              // Listing 1: allocation_sampling in progress
	stValidate              // Listing 3: one-period reset validation
)

func (s state) String() string {
	switch s {
	case stOptimise:
		return "optimise"
	case stSampling:
		return "sampling"
	case stValidate:
		return "validate"
	}
	return "unknown"
}

// EventKind labels a controller decision for tracing.
type EventKind string

// Controller decisions, in the vocabulary of the paper's listings.
const (
	EventShrink      EventKind = "shrink"       // stable IPC: HP loses one way
	EventHold        EventKind = "hold"         // improved IPC: keep allocation
	EventReset       EventKind = "reset"        // degraded IPC or phase change
	EventPhaseChange EventKind = "phase-change" // Eq. 2 fired
	EventSample      EventKind = "sample"       // sampling step applied
	EventSampleDone  EventKind = "sample-done"  // optimal allocation enforced
	EventRollback    EventKind = "rollback"     // CT-F validation failed
	EventValidated   EventKind = "validated"    // reset validation passed
	EventSaturated   EventKind = "saturated"    // bandwidth threshold crossed
)

// Cause maps a decision to the provenance taxonomy: the compact
// operator-facing answer to "why did the mask change this period".
// Decisions that adjust the partition name their mechanism
// (saturation-detected, sampling, shrink-step, phase-reset,
// perf-reset); decisions that keep or confirm it name the evidence
// (steady, validated, rollback). The observability recorder annotates
// every trace record with the period's final cause — overridden by
// guard-veto when the invariant guard intervened and chaos-masked when
// an injected fault swallowed the actuation — so every mask change in
// a trace is explainable without re-deriving the state machine.
func (k EventKind) Cause() string {
	switch k {
	case EventSaturated:
		return "saturation-detected"
	case EventSample, EventSampleDone:
		return "sampling"
	case EventShrink:
		return "shrink-step"
	case EventHold:
		return "steady"
	case EventPhaseChange:
		return "phase-reset"
	case EventReset:
		return "perf-reset"
	case EventRollback:
		return "rollback"
	case EventValidated:
		return "validated"
	}
	return string(k)
}

// Event records one controller decision; examples and tests subscribe via
// Controller.Trace to watch DICER think. Group is the CLOS group the
// decision concerns (always 0 on the two-CLOS split); HPWays and HPIPC
// carry that group's allocation and mean member IPC.
type Event struct {
	Group   int
	Period  int
	State   string
	Kind    EventKind
	Cause   string // provenance tag, Kind.Cause()
	HPWays  int
	HPIPC   float64
	TotalBW float64
}

// ControllerOf extracts the DICER controller from a policy that is one or
// wraps one (the ext policies and the invariant guard expose
// Controller()). It returns nil for policies without a controller.
func ControllerOf(p policy.Policy) *Controller {
	switch v := p.(type) {
	case *Controller:
		return v
	case interface{ Controller() *Controller }:
		return v.Controller()
	}
	return nil
}
