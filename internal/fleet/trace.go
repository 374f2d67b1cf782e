package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceSchema identifies the cluster trace format. The first line of a
// trace is a TraceHeader carrying this tag; every following line is one
// ClusterRecord. Marshalling goes through obs.LineWriter, so field order
// is struct order and the byte stream is deterministic.
const TraceSchema = "dicer-fleet/v1"

// TraceHeader is the first line of a cluster trace: everything needed to
// regenerate the run (the arrival trace is a pure function of Arrivals,
// node chaos of NodeChaos+seed parameters recorded by name).
type TraceHeader struct {
	Schema         string  `json:"schema"`
	Nodes          int     `json:"nodes"`
	CoresPerNode   int     `json:"cores_per_node"`
	Policy         string  `json:"policy"`
	Scheduler      string  `json:"scheduler"`
	SchedSeed      int64   `json:"sched_seed,omitempty"`
	PeriodSec      float64 `json:"period_sec"`
	StepsPerPeriod int     `json:"steps_per_period"`
	HorizonPeriods int     `json:"horizon_periods"`
	SLO            float64 `json:"slo"`
	// LinkGbps is each node's memory-link capacity, for link
	// utilisation diagnostics over the heartbeats' bandwidth readings.
	LinkGbps float64 `json:"link_gbps,omitempty"`
	QueueCap int     `json:"queue_cap"`
	// HPsPerNode is recorded only for multi-HP fleets; legacy single-HP
	// traces omit it and stay byte-identical.
	HPsPerNode int           `json:"hps_per_node,omitempty"`
	HPs        []string      `json:"hps"`
	Arrivals   ArrivalConfig `json:"arrivals"`
	NodeChaos  string        `json:"node_chaos,omitempty"`
	// Autoscale / Migration / Forensics record the control loops' and
	// flight recorder's parameters when enabled; static fleets omit
	// them and stay byte-identical.
	Autoscale *AutoscaleConfig `json:"autoscale,omitempty"`
	Migration *MigrationConfig `json:"migration,omitempty"`
	Forensics *ForensicsConfig `json:"forensics,omitempty"`
}

// Causes of fleet-level control events, the decision provenance of the
// orchestration layer's trace stream.
const (
	// CauseMigration marks BE evictions off a node whose SLO burn-rate
	// alert is firing.
	CauseMigration = "slo-burn-migration"
	// CauseScaleUp marks nodes added by the autoscaler.
	CauseScaleUp = "autoscale-up"
	// CauseScaleDown marks a node drained (detail "drain") or removed
	// after draining empty (detail "retire").
	CauseScaleDown = "autoscale-down"
	// CauseRepack marks the repartition-first action: drains cancelled
	// and node cache plans re-clustered in place of added capacity.
	CauseRepack = "repack"
)

// FleetEvent is one control decision of the orchestration layer,
// recorded in the period it took effect.
type FleetEvent struct {
	// Cause is one of the Cause* constants.
	Cause string `json:"cause"`
	// Node is the acted-on node, or -1 for fleet-level actions.
	Node int `json:"node"`
	// Jobs lists affected job IDs (evictions).
	Jobs []int `json:"jobs,omitempty"`
	// Detail carries cause-specific context (burn rates, node counts).
	Detail string `json:"detail,omitempty"`
}

// ClusterRecord is one monitoring period of the whole cluster: the
// admission/placement bookkeeping of the period, the aggregate health
// numbers, and every node's heartbeat (sorted by node ID; frozen and
// lost nodes get synthesised heartbeats so the stream stays dense).
type ClusterRecord struct {
	Period int `json:"period"`

	Arrivals int `json:"arrivals"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Placed   int `json:"placed"`
	Requeued int `json:"requeued"`
	Dropped  int `json:"dropped"`
	Done     int `json:"done"`

	QueueLen int `json:"queue_len"`
	Running  int `json:"running"`

	Freezes int `json:"freezes,omitempty"`
	Losses  int `json:"losses,omitempty"`

	// Evicted counts BE jobs migrated off burning nodes this period;
	// Quarantined the healthy nodes the migration engine is keeping out
	// of the placement candidate set; NodesLive is the fleet size net of
	// retired nodes (recorded only when the autoscaler runs, so static
	// traces are unchanged). Incidents counts forensic bundles sealed
	// this period (flight recorder armed only).
	Evicted     int `json:"evicted,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	NodesLive   int `json:"nodes_live,omitempty"`
	Incidents   int `json:"incidents,omitempty"`

	// SLOViolations counts live nodes whose HP missed its SLO this
	// period; FleetEFU is Σ norm-IPC over every running process divided
	// by total fleet capacity (lost and frozen capacity earns zero;
	// retired capacity leaves the denominator).
	SLOViolations int     `json:"slo_violations"`
	FleetEFU      float64 `json:"fleet_efu"`

	// Events are the period's control decisions, in decision order
	// (migrations, then autoscaling).
	Events []FleetEvent `json:"events,omitempty"`

	Nodes []Heartbeat `json:"nodes"`
}

// ReadClusterTrace parses a cluster trace written by Cluster.Run,
// collecting every record.
func ReadClusterTrace(r io.Reader) (TraceHeader, []ClusterRecord, error) {
	d, hdr, err := NewTraceDecoder(r)
	if err != nil {
		return hdr, nil, err
	}
	var recs []ClusterRecord
	for {
		var rec ClusterRecord
		if err := d.Decode(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return hdr, recs, err
		}
		recs = append(recs, rec)
	}
}

// TraceDecoder reads a cluster trace one record at a time, so a reader
// that folds records as they come holds one record, not the trace.
type TraceDecoder struct {
	sc *bufio.Scanner
	n  int // records decoded
}

// NewTraceDecoder reads and checks a cluster trace's header.
func NewTraceDecoder(r io.Reader) (*TraceDecoder, TraceHeader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var hdr TraceHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, hdr, err
		}
		return nil, hdr, fmt.Errorf("fleet: empty trace")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, hdr, fmt.Errorf("fleet: bad trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, hdr, fmt.Errorf("fleet: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	return &TraceDecoder{sc: sc}, hdr, nil
}

// Decode decodes the next record into rec; io.EOF follows the last. rec
// is zeroed first, keeping only the arrays behind its Nodes and Events
// (the decoder fills reused elements field by field, so stale ones must
// not show through), so one record can carry a whole trace.
func (d *TraceDecoder) Decode(rec *ClusterRecord) error {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		nodes, events := rec.Nodes[:cap(rec.Nodes)], rec.Events[:cap(rec.Events)]
		clear(nodes)
		clear(events)
		*rec = ClusterRecord{Nodes: nodes[:0], Events: events[:0]}
		if err := json.Unmarshal(line, rec); err != nil {
			return fmt.Errorf("fleet: bad record %d: %w", d.n, err)
		}
		d.n++
		return nil
	}
	if err := d.sc.Err(); err != nil {
		return err
	}
	return io.EOF
}
