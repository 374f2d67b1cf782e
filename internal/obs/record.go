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
//   - Can I replay it? Replay re-drives a fresh controller from a v1
//     trace's recorded inputs and verifies decision-for-decision
//     equivalence, so every captured single-HP trace doubles as a
//     regression test.
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
const Schema = "dicer-trace/v1"

// SchemaV2 is the multi-HP trace format: the v1 layout plus per-CLOS-
// group header fields (HPs, SLOs, CLOSBudget, Grouping) and per-period
// group records. Every v2 field is optional in both Header and Record,
// so v1 traces parse unchanged and v1 writers remain byte-identical;
// ReadTrace accepts both versions.
const SchemaV2 = "dicer-trace/v2"

// maxDecisions bounds the controller decision events recorded per period.
// The DICER state machine emits at most two per Observe (e.g. "saturated"
// followed by "sample"); four leaves headroom without heap allocation.
const maxDecisions = 4

// Header is the first line of a JSONL trace: everything needed to
// interpret — and replay — the records that follow.
type Header struct {
	// Schema is Schema or SchemaV2, stamped by Recorder.Start from the
	// layout of the attached controller.
	Schema string `json:"schema"`
	// Policy is the co-location policy name (e.g. "DICER", "UM").
	Policy string `json:"policy"`
	// HP and BEs name the workload (catalog profile names).
	HP  string   `json:"hp,omitempty"`
	BEs []string `json:"bes,omitempty"`
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
	// SLO is the HP's target fraction of alone performance (the
	// slowdown target is its reciprocal); HPAloneIPC the HP's full-LLC
	// alone-run IPC it is measured against. Both are optional — the
	// diagnostic layer (internal/diag) falls back to the trace's peak
	// HP IPC as the reference when they are absent.
	SLO        float64 `json:"slo,omitempty"`
	HPAloneIPC float64 `json:"hp_alone_ipc,omitempty"`
	// LinkGbps is the machine's memory-link capacity, for link
	// utilisation diagnostics.
	LinkGbps float64 `json:"link_gbps,omitempty"`
	// Controller is the DICER configuration, when the traced policy is
	// (or wraps) a DICER controller; nil otherwise. Replay requires it.
	Controller *core.Config `json:"controller,omitempty"`

	// v2 (multi-HP) fields — absent in v1 traces.
	//
	// HPs names the HP applications in app order (HP is then unused);
	// SLOs carries each app's target fraction of alone performance.
	HPs  []string  `json:"hps,omitempty"`
	SLOs []float64 `json:"slos,omitempty"`
	// CLOSBudget is the CLOS-id budget the grouping plan ran under, and
	// Grouping the policy that produced it (clustered/per-app/single).
	CLOSBudget int    `json:"clos_budget,omitempty"`
	Grouping   string `json:"grouping,omitempty"`
}

// FaultFree reports whether the trace was recorded without fault
// injection — the condition under which replay can also verify the
// installed masks, not just the controller decisions.
func (h Header) FaultFree() bool { return h.Chaos == "" || h.Chaos == "none" }

// Record is one monitoring period's audit entry. The first group of
// fields is the controller's *input* (the counters it read and the
// verdicts derived from them); the second is its *output* (state,
// decisions, intended allocation, installed masks); the rest annotates
// the substrate (guard interventions, chaos faults, tolerated errors).
//
// All fields are fixed-size except Decisions and Groups, which alias
// preallocated buffers inside the Recorder; sinks that retain records
// beyond the Emit call must deep-copy (Ring does).
type Record struct {
	// Period is the monitoring period index (0-based).
	Period int `json:"period"`
	// TimeSec is simulated seconds elapsed since the run began.
	TimeSec float64 `json:"time_sec"`

	// Inputs: the counters the controller read this period.
	HPIPC      float64 `json:"hp_ipc"`
	BEMeanIPC  float64 `json:"be_mean_ipc"`
	HPBWGbps   float64 `json:"hp_bw_gbps"`
	TotalGbps  float64 `json:"total_bw_gbps"`
	HPOccBytes float64 `json:"hp_occ_bytes"`
	// Saturated is the period's saturation verdict: total bandwidth above
	// the controller's MemBW_threshold. Always false for policies without
	// a DICER controller (no threshold to compare against).
	Saturated bool `json:"saturated,omitempty"`

	// Outputs: what the controller decided.
	//
	// State is the controller state after the period ("optimise",
	// "sampling", "validate"; "" for non-DICER policies). Decisions are
	// the decision events emitted during the period, in order. HPWays is
	// the controller's intended HP partition size; HPMask/BEMask are the
	// masks actually installed on the substrate at period end (under
	// actuation faults the two can disagree).
	State     string   `json:"state,omitempty"`
	Decisions []string `json:"decisions,omitempty"`
	// Cause is the period's decision provenance: the final decision's
	// cause tag (core.EventKind.Cause — saturation-detected, sampling,
	// shrink-step, steady, phase-reset, perf-reset, rollback,
	// validated), overridden by "guard-veto" when the invariant guard
	// intervened and "chaos-masked" when an injected fault swallowed
	// the actuation. Empty for policies without a controller.
	Cause  string `json:"cause,omitempty"`
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

	// Groups holds per-CLOS-group observations and decisions for multi-
	// HP (v2) traces; empty in v1 traces. Like Decisions it aliases
	// recorder scratch — retaining sinks must deep-copy (Ring does).
	Groups []GroupRecord `json:"groups,omitempty"`
	// Reclustered marks a period in which the grouping plan changed and
	// the per-group state machines restarted.
	Reclustered bool `json:"reclustered,omitempty"`
}

// GroupRecord is one CLOS group's slice of a v2 record: the counters the
// group's state machine read and what it decided.
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

// clone returns a deep copy whose Decisions no longer alias the
// recorder's scratch buffer.
func (r *Record) clone() Record {
	out := *r
	if len(r.Decisions) > 0 {
		out.Decisions = append([]string(nil), r.Decisions...)
	}
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
