// Package obs is the observability layer of the repository: a structured,
// per-monitoring-period audit trail of what the DICER control loop saw and
// what it decided, with pluggable sinks and a deterministic replay.
//
// DICER's whole contract is a control loop over observed counters (IPC,
// occupancy, MBM bandwidth); production controllers of this kind live or
// die by their audit trail. The layer answers the operator's three
// questions:
//
//   - What did the controller see? Every Record carries the period's
//     counter readings (HP/BE IPC, per-group bandwidth, occupancy) and the
//     saturation verdict derived from them.
//   - What did it decide? The controller's decision events (shrink, hold,
//     reset, sample, ...), its state machine position, the intended HP way
//     count and the masks actually installed, plus guard interventions and
//     chaos faults active in the period.
//   - Can I replay it? Replay re-drives a fresh controller from a
//     trace's recorded inputs and verifies decision-for-decision
//     equivalence, so every captured trace doubles as a regression
//     test, at any number of CLOS groups.
//
// The hot path stays clean: records are assembled in a preallocated
// scratch buffer and sinks receive a pointer, so tracing through the no-op
// sink (or a ring) costs zero allocations per period — the PR 2 hot-path
// guarantees (steady-state Step and controller Observe at 0 allocs/op)
// are preserved with tracing enabled. The allocation guard in
// alloc_test.go pins this down.
package obs

import (
	"dicer/internal/chaos"
	"dicer/internal/core"
)

// Schema identifies the trace file format. It is the first line's
// "schema" field; readers reject files with a different value.
const Schema = "dicer-trace/v3"

// maxDecisions bounds the decision events recorded per group and period.
// A group's state machine emits at most two per Observe (e.g.
// "saturated" followed by "sample"), plus "recluster" when the period
// re-plans; four leaves headroom without heap allocation.
const maxDecisions = 4

// Header is the first line of a JSONL trace: everything needed to
// interpret — and replay — the records that follow.
type Header struct {
	// Schema is Schema, stamped by Recorder.Start.
	Schema string `json:"schema"`
	// Policy is the co-location policy name (e.g. "DICER", "UM").
	Policy string `json:"policy"`
	// HPs and BEs name the workload (catalog profile names, HPs in app
	// order); SLOs is each HP's target fraction of alone performance.
	HPs  []string  `json:"hps,omitempty"`
	SLOs []float64 `json:"slos,omitempty"`
	BEs  []string  `json:"bes,omitempty"`
	// NumWays is the machine's allocatable LLC way count.
	NumWays int `json:"num_ways"`
	// PeriodSec is the monitoring period length T.
	PeriodSec float64 `json:"period_sec,omitempty"`
	// HorizonPeriods is the configured run length.
	HorizonPeriods int `json:"horizon_periods,omitempty"`
	// Chaos names the fault schedule active during recording ("" or
	// "none" means fault-free); ChaosSeed seeds its fault stream.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`
	// HPAloneIPC is a single HP's full-LLC alone-run IPC, its slowdown
	// reference; without it the diagnostic layer (internal/diag) falls
	// back to the trace's peak HP IPC.
	HPAloneIPC float64 `json:"hp_alone_ipc,omitempty"`
	// LinkGbps is the machine's memory-link capacity, for link
	// utilisation diagnostics.
	LinkGbps float64 `json:"link_gbps,omitempty"`
	// Controller is the DICER configuration, when the traced policy is
	// (or wraps) a DICER controller; nil otherwise. Replay requires it.
	Controller *core.Config `json:"controller,omitempty"`
	// CLOSBudget is the controller's CLOS-id budget (2 on the two-CLOS
	// split), Grouping its planning policy ("" on the split) and Plan
	// the grouping Setup installed.
	CLOSBudget int         `json:"clos_budget,omitempty"`
	Grouping   string      `json:"grouping,omitempty"`
	Plan       []PlanGroup `json:"plan,omitempty"`
}

// FaultFree reports whether the trace was recorded without fault
// injection — the condition under which replay can also verify the
// installed masks, not just the controller decisions.
func (h Header) FaultFree() bool { return h.Chaos == "" || h.Chaos == "none" }

// Record is one monitoring period's audit entry. The first group of
// fields is the controller's *input* (the counters it read and the
// verdicts derived from them); the second its *output* (intended
// allocation, installed masks); the next annotates the substrate (guard
// interventions, chaos faults, tolerated errors). Under a controller,
// Groups carries one entry per HP CLOS group — exactly one on the
// two-CLOS split — and Plan the grouping a re-cluster installed.
//
// Groups and their Decisions alias preallocated buffers inside the
// Recorder; sinks that retain records beyond the Emit call must
// deep-copy them (Ring does). A Plan is allocated for its re-cluster
// and never written again, so retaining sinks may share it.
type Record struct {
	// Period is the monitoring period index (0-based).
	Period int `json:"period"`
	// TimeSec is simulated seconds elapsed since the run began.
	TimeSec float64 `json:"time_sec"`

	// Inputs: the counters the controller read this period, HP totals
	// spanning every HP group.
	HPIPC      float64 `json:"hp_ipc"`
	BEMeanIPC  float64 `json:"be_mean_ipc"`
	HPBWGbps   float64 `json:"hp_bw_gbps"`
	TotalGbps  float64 `json:"total_bw_gbps"`
	HPOccBytes float64 `json:"hp_occ_bytes"`
	// Saturated is the period's saturation verdict: total bandwidth above
	// the controller's MemBW_threshold. Always false for policies without
	// a DICER controller (no threshold to compare against).
	Saturated bool `json:"saturated,omitempty"`

	// Outputs. HPWays is the HP ways the controller intends, summed over
	// its groups (the installed HP masks' way count without a
	// controller); HPMask/BEMask are the masks installed at period end.
	// Under actuation faults intent and installation can disagree.
	HPWays int    `json:"hp_ways"`
	HPMask uint64 `json:"hp_mask"`
	BEMask uint64 `json:"be_mask"`

	// Faults counts the chaos faults injected during this period (the
	// delta of the chaos system's cumulative stats). Zero without a
	// chaos layer.
	Faults chaos.Stats `json:"faults"`
	// Tolerated marks a period whose actuation was rejected by an
	// injected fault and tolerated by the harness (retried next period).
	Tolerated bool `json:"tolerated,omitempty"`
	// Guard carries the invariant guard's violation text when the period
	// tripped the runtime guard; empty otherwise.
	Guard string `json:"guard,omitempty"`
	// Err carries any other error the period's observation produced.
	Err string `json:"err,omitempty"`

	Groups []GroupRecord `json:"groups,omitempty"`
	Plan   []PlanGroup   `json:"plan,omitempty"`
}

// GroupRecord is one CLOS group's slice of a record: the counters the
// group's state machine read and what it decided. State is its state
// after the period, Ways its intended allocation, Mask the mask
// installed on its CLOS and Decisions its decision events in order.
// Cause is the group's provenance: the last decision's cause tag
// (core.EventKind.Cause), overridden by "guard-veto" when the invariant
// guard intervened and "chaos-masked" when an injected fault swallowed
// the actuation.
type GroupRecord struct {
	Group     int      `json:"group"`
	IPC       float64  `json:"ipc"`
	BWGbps    float64  `json:"bw_gbps"`
	Ways      int      `json:"ways"`
	Mask      uint64   `json:"mask"`
	State     string   `json:"state,omitempty"`
	Decisions []string `json:"decisions,omitempty"`
	Cause     string   `json:"cause,omitempty"`
}

// PlanGroup is one HP CLOS group of a grouping plan: its member apps
// (indices into the header's HPs, ascending) and the way budget its
// state machine moves under.
type PlanGroup struct {
	Apps []int `json:"apps"`
	Ways int   `json:"ways"`
}

// clone returns a copy that shares no recorder scratch with r (its plan,
// never written again, is shared).
func (r *Record) clone() Record {
	out := *r
	if len(r.Groups) > 0 {
		out.Groups = append([]GroupRecord(nil), r.Groups...)
		for i := range out.Groups {
			if len(out.Groups[i].Decisions) > 0 {
				out.Groups[i].Decisions = append([]string(nil), out.Groups[i].Decisions...)
			}
		}
	}
	return out
}
