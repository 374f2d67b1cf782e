package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// TraceSchema identifies the cluster trace format. The first line of a
// trace is a TraceHeader carrying this tag; every following line is one
// ClusterRecord. Lines go through obs.LineWriter: the header through
// encoding/json, records through ClusterRecord.AppendJSON, which writes
// the same bytes. Field order is struct order and the byte stream is
// deterministic.
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
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, assembled; reused
	n    int    // records decoded
}

// NewTraceDecoder reads and checks a cluster trace's header.
func NewTraceDecoder(r io.Reader) (*TraceDecoder, TraceHeader, error) {
	d := &TraceDecoder{r: bufio.NewReaderSize(r, 64<<10)}
	var hdr TraceHeader
	line, err := d.readLine()
	if err == io.EOF {
		return nil, hdr, fmt.Errorf("fleet: empty trace")
	}
	if err != nil {
		return nil, hdr, fmt.Errorf("fleet: reading trace header: %w", err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, hdr, fmt.Errorf("fleet: bad trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, hdr, fmt.Errorf("fleet: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	return d, hdr, nil
}

// readLine returns the next line cut as bufio.ScanLines cuts it: without
// its "\n" and one "\r" before that, the last line with or without "\n".
// io.EOF follows the last line. A line may be of any length, so a trace
// reads whatever its node count; the slice is valid until the next call.
func (d *TraceDecoder) readLine() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.r.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Decode decodes the next record into rec; io.EOF follows the last.
// Blank lines are skipped. rec is zeroed first (see decodeLine), so one
// record can carry a whole trace.
func (d *TraceDecoder) Decode(rec *ClusterRecord) error {
	for {
		line, err := d.readLine()
		if err == io.EOF {
			return err
		}
		if err != nil {
			return fmt.Errorf("fleet: reading record %d: %w", d.n, err)
		}
		if len(line) == 0 {
			continue
		}
		if err := rec.decodeLine(line); err != nil {
			return fmt.Errorf("fleet: bad record %d: %w", d.n, err)
		}
		d.n++
		return nil
	}
}

// decodeLine decodes one record line into rec: in one pass when the line
// is laid out as AppendJSON writes it, through encoding/json otherwise,
// so both accept the same lines and decode the same values.
func (rec *ClusterRecord) decodeLine(line []byte) error {
	rec.reset()
	if rec.decodeFast(line) {
		return nil
	}
	rec.reset()
	return json.Unmarshal(line, rec)
}

// reset zeroes rec, keeping only the arrays behind its Nodes and Events:
// encoding/json fills reused elements field by field, so stale ones must
// not show through.
func (rec *ClusterRecord) reset() {
	nodes, events := rec.Nodes[:cap(rec.Nodes)], rec.Events[:cap(rec.Events)]
	clear(nodes)
	clear(events)
	*rec = ClusterRecord{Nodes: nodes[:0], Events: events[:0]}
}

// AppendJSON appends the record's JSON encoding to b, byte for byte what
// json.Marshal writes for it, without reflection: fields in struct
// order, zero omitempty fields left out, floats in encoding/json's
// format and strings with its escaping. obs.LineWriter calls it through
// an interface. Like json.Marshal, it refuses a NaN or infinite float
// with a *json.UnsupportedValueError (whose Value is left zero).
func (rec *ClusterRecord) AppendJSON(b []byte) ([]byte, error) {
	e := recordEncoder{b: b}
	e.int(`{"period":`, rec.Period)
	e.int(`,"arrivals":`, rec.Arrivals)
	e.int(`,"admitted":`, rec.Admitted)
	e.int(`,"rejected":`, rec.Rejected)
	e.int(`,"placed":`, rec.Placed)
	e.int(`,"requeued":`, rec.Requeued)
	e.int(`,"dropped":`, rec.Dropped)
	e.int(`,"done":`, rec.Done)
	e.int(`,"queue_len":`, rec.QueueLen)
	e.int(`,"running":`, rec.Running)
	e.omitInt(`,"freezes":`, rec.Freezes)
	e.omitInt(`,"losses":`, rec.Losses)
	e.omitInt(`,"evicted":`, rec.Evicted)
	e.omitInt(`,"quarantined":`, rec.Quarantined)
	e.omitInt(`,"nodes_live":`, rec.NodesLive)
	e.omitInt(`,"incidents":`, rec.Incidents)
	e.int(`,"slo_violations":`, rec.SLOViolations)
	e.float(`,"fleet_efu":`, rec.FleetEFU)
	for i := range rec.Events {
		ev := &rec.Events[i]
		if i == 0 {
			e.b = append(e.b, `,"events":[`...)
		} else {
			e.b = append(e.b, ',')
		}
		e.str(`{"cause":`, ev.Cause)
		e.int(`,"node":`, ev.Node)
		for j, job := range ev.Jobs {
			if j == 0 {
				e.b = append(e.b, `,"jobs":[`...)
			} else {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendInt(e.b, int64(job), 10)
		}
		if len(ev.Jobs) > 0 {
			e.b = append(e.b, ']')
		}
		if ev.Detail != "" {
			e.str(`,"detail":`, ev.Detail)
		}
		e.b = append(e.b, '}')
	}
	if len(rec.Events) > 0 {
		e.b = append(e.b, ']')
	}
	if rec.Nodes == nil {
		e.b = append(e.b, `,"nodes":null}`...)
		return e.b, e.err
	}
	e.b = append(e.b, `,"nodes":[`...)
	for i := range rec.Nodes {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		hb := &rec.Nodes[i]
		e.int(`{"node":`, hb.Node)
		e.flag(`,"frozen":true`, hb.Frozen)
		e.flag(`,"lost":true`, hb.Lost)
		e.flag(`,"draining":true`, hb.Draining)
		e.flag(`,"retired":true`, hb.Retired)
		e.omitFloat(`,"hp_ipc":`, hb.HPIPC)
		e.omitFloat(`,"hp_norm":`, hb.HPNorm)
		e.omitInt(`,"hp_groups":`, hb.HPGroups)
		e.int(`,"be_count":`, hb.BECount)
		e.omitInt(`,"hp_ways":`, hb.HPWays)
		e.omitFloat(`,"hp_bw_gbps":`, hb.HPBWGbps)
		e.omitFloat(`,"total_bw_gbps":`, hb.TotalGbps)
		e.flag(`,"saturated":true`, hb.Saturated)
		e.flag(`,"slo_violated":true`, hb.SLOViolated)
		e.omitFloat(`,"norm_sum":`, hb.NormSum)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "]}"...)
	return e.b, e.err
}

// recordEncoder appends a record's fields; each key carries the comma
// before it and the colon after it. err keeps the first refused float.
type recordEncoder struct {
	b   []byte
	err error
}

func (e *recordEncoder) int(key string, v int) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// omitInt, omitFloat and flag write an omitempty field: nothing when it
// is zero. flag's key ends in ":true".
func (e *recordEncoder) omitInt(key string, v int) {
	if v != 0 {
		e.int(key, v)
	}
}

func (e *recordEncoder) omitFloat(key string, f float64) {
	if f != 0 {
		e.float(key, f)
	}
}

func (e *recordEncoder) flag(key string, v bool) {
	if v {
		e.b = append(e.b, key...)
	}
}

// float writes f as encoding/json does: the shortest exact decimal,
// in exponent form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent not padded.
func (e *recordEncoder) float(key string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.b = append(e.b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str writes s quoted. Printable ASCII other than '"', '\\' and the
// HTML characters needs no escape; any other string (control bytes,
// non-ASCII, invalid UTF-8) goes through json.Marshal, whose escaping is
// the contract. Only event causes and details are strings, and events
// are rare.
func (e *recordEncoder) str(key, s string) {
	e.b = append(e.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// decodeFast decodes a record line laid out exactly as AppendJSON writes
// it: keys in struct order, zero omitempty fields absent, no whitespace,
// strings of printable ASCII without escapes, at least one heartbeat. It
// reports false on any other line, leaving rec partly written; numbers
// follow JSON's grammar and convert as encoding/json converts them, so
// every line it accepts encoding/json accepts with the same values.
func (rec *ClusterRecord) decodeFast(line []byte) bool {
	d := recordDecoder{b: line}
	if !(d.int(`{"period":`, &rec.Period) && d.int(`,"arrivals":`, &rec.Arrivals) &&
		d.int(`,"admitted":`, &rec.Admitted) && d.int(`,"rejected":`, &rec.Rejected) &&
		d.int(`,"placed":`, &rec.Placed) && d.int(`,"requeued":`, &rec.Requeued) &&
		d.int(`,"dropped":`, &rec.Dropped) && d.int(`,"done":`, &rec.Done) &&
		d.int(`,"queue_len":`, &rec.QueueLen) && d.int(`,"running":`, &rec.Running) &&
		d.omitInt(`,"freezes":`, &rec.Freezes) && d.omitInt(`,"losses":`, &rec.Losses) &&
		d.omitInt(`,"evicted":`, &rec.Evicted) && d.omitInt(`,"quarantined":`, &rec.Quarantined) &&
		d.omitInt(`,"nodes_live":`, &rec.NodesLive) && d.omitInt(`,"incidents":`, &rec.Incidents) &&
		d.int(`,"slo_violations":`, &rec.SLOViolations) && d.float(`,"fleet_efu":`, &rec.FleetEFU)) {
		return false
	}
	if d.key(`,"events":[`) {
		for {
			var ev FleetEvent
			if !d.event(&ev) {
				return false
			}
			rec.Events = append(rec.Events, ev)
			if !d.key(",") {
				break
			}
		}
		if !d.key("]") {
			return false
		}
	}
	if !d.key(`,"nodes":[`) {
		return false
	}
	for {
		rec.Nodes = append(rec.Nodes, Heartbeat{})
		if !d.heartbeat(&rec.Nodes[len(rec.Nodes)-1]) {
			return false
		}
		if !d.key(",") {
			break
		}
	}
	return d.key("]}") && d.i == len(d.b)
}

// recordDecoder is decodeFast's cursor over one line. Each method
// consumes what it matches and reports whether it matched.
type recordDecoder struct {
	b []byte
	i int
}

// key consumes lit if the line continues with it.
func (d *recordDecoder) key(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *recordDecoder) event(ev *FleetEvent) bool {
	if !(d.str(`{"cause":`, &ev.Cause) && d.int(`,"node":`, &ev.Node)) {
		return false
	}
	if d.key(`,"jobs":[`) {
		for {
			var job int
			if !d.int("", &job) {
				return false
			}
			ev.Jobs = append(ev.Jobs, job)
			if !d.key(",") {
				break
			}
		}
		if !d.key("]") {
			return false
		}
	}
	if d.key(`,"detail":`) && !(d.str("", &ev.Detail) && ev.Detail != "") {
		return false
	}
	return d.key("}")
}

func (d *recordDecoder) heartbeat(hb *Heartbeat) bool {
	if !d.int(`{"node":`, &hb.Node) {
		return false
	}
	hb.Frozen = d.key(`,"frozen":true`)
	hb.Lost = d.key(`,"lost":true`)
	hb.Draining = d.key(`,"draining":true`)
	hb.Retired = d.key(`,"retired":true`)
	if !(d.omitFloat(`,"hp_ipc":`, &hb.HPIPC) && d.omitFloat(`,"hp_norm":`, &hb.HPNorm) &&
		d.omitInt(`,"hp_groups":`, &hb.HPGroups) && d.int(`,"be_count":`, &hb.BECount) &&
		d.omitInt(`,"hp_ways":`, &hb.HPWays) && d.omitFloat(`,"hp_bw_gbps":`, &hb.HPBWGbps) &&
		d.omitFloat(`,"total_bw_gbps":`, &hb.TotalGbps)) {
		return false
	}
	hb.Saturated = d.key(`,"saturated":true`)
	hb.SLOViolated = d.key(`,"slo_violated":true`)
	return d.omitFloat(`,"norm_sum":`, &hb.NormSum) && d.key("}")
}

// int consumes key and an integer in JSON's grammar (no leading zero)
// that fits an int, as encoding/json converts it. Longer than 18 digits
// it refuses, leaving such a value to encoding/json.
func (d *recordDecoder) int(key string, p *int) bool {
	if !d.key(key) {
		return false
	}
	i := d.i
	if i < len(d.b) && d.b[i] == '-' {
		i++
	}
	start := i
	var n int64
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		n = n*10 + int64(d.b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && d.b[start] == '0' {
		return false
	}
	if d.b[d.i] == '-' {
		n = -n
	}
	if int64(int(n)) != n {
		return false
	}
	*p = int(n)
	d.i = i
	return true
}

// omitInt and omitFloat consume an omitempty field: absent, or present
// and not zero, since AppendJSON leaves zeros out.
func (d *recordDecoder) omitInt(key string, p *int) bool {
	return !d.key(key) || d.int("", p) && *p != 0
}

func (d *recordDecoder) omitFloat(key string, p *float64) bool {
	return !d.key(key) || d.float("", p) && *p != 0
}

// float consumes key and a number in JSON's grammar, converted by
// strconv.ParseFloat as encoding/json converts it; out of range, it
// refuses.
func (d *recordDecoder) float(key string, p *float64) bool {
	if !d.key(key) {
		return false
	}
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		return false
	}
	*p = f
	d.i = i
	return true
}

// str consumes key and a string of printable ASCII without escapes;
// anything else is left to encoding/json.
func (d *recordDecoder) str(key string, p *string) bool {
	if !d.key(key) || !d.key(`"`) {
		return false
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			*p = string(d.b[d.i:i])
			d.i = i + 1
			return true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return false
		}
	}
	return false
}
