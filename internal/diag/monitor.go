package diag

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dicer/internal/fleet"
	"dicer/internal/obs"
	"dicer/internal/slo"
)

// histories are capped so a monitor attached to a forever-looping serve
// mode stays bounded; offline analyses of normal traces fit well under
// the caps, so live and offline stay bit-equal.
const (
	maxEvents   = 1024
	maxTimeline = 4096
)

// newSlowdownHist spans 0.5x..50x at ~2.3% resolution.
func newSlowdownHist() *Histogram { return NewHistogram(0.5, 50, 100) }

// newUtilHist spans 1%..200% utilisation.
func newUtilHist() *Histogram { return NewHistogram(0.01, 2, 50) }

// newIntervalHist spans 1..1000 periods.
func newIntervalHist() *Histogram { return NewHistogram(0.5, 1000, 20) }

// BurnPoint is one period of the burn-rate timeline.
type BurnPoint struct {
	Period int     `json:"period"`
	Short  float64 `json:"short"`
	Long   float64 `json:"long"`
	Firing bool    `json:"firing"`
}

// CauseCount is one decision-provenance bucket of the cause histogram.
type CauseCount struct {
	Cause   string `json:"cause"`
	Periods int    `json:"periods"`
}

// burnTrack is a burn-rate alerter with the history both monitors
// keep of it: the capped transition list and burn timeline the reports
// replay, and the number of periods spent firing.
type burnTrack struct {
	alerter       *slo.Alerter
	events        []slo.AlertEvent
	timeline      []BurnPoint
	firingPeriods int
}

// step feeds one period's violating fraction and returns the alert
// transition, if the period made one.
func (b *burnTrack) step(period int, violFrac float64) (slo.AlertEvent, bool) {
	ev, changed := b.alerter.Step(violFrac)
	if changed && len(b.events) < maxEvents {
		b.events = append(b.events, ev)
	}
	if b.alerter.Firing() {
		b.firingPeriods++
	}
	if len(b.timeline) < maxTimeline {
		burns := b.alerter.Burns()
		b.timeline = append(b.timeline, BurnPoint{
			Period: period,
			Short:  burns[0],
			Long:   burns[len(burns)-1],
			Firing: b.alerter.Firing(),
		})
	}
	return ev, changed
}

// report summarises the tracker; the violation rate is over n periods
// (node-periods for a fleet).
func (b *burnTrack) report(violations, n int) AlertReport {
	ar := AlertReport{
		Config:        b.alerter.Config(),
		Violations:    violations,
		FiringPeriods: b.firingPeriods,
		Fires:         b.alerter.State().Fires,
		FinalFiring:   b.alerter.Firing(),
		Events:        append([]slo.AlertEvent(nil), b.events...),
		Timeline:      append([]BurnPoint(nil), b.timeline...),
	}
	if n > 0 {
		ar.ViolationRate = float64(violations) / float64(n)
	}
	return ar
}

// writeProm renders the alert gauges under a dicer_<prefix> namespace.
func (b *burnTrack) writeProm(w io.Writer, prefix string) {
	st := b.alerter.State()
	writeGauge(w, "dicer_"+prefix+"slo_alert_firing", "1 while the SLO burn-rate alert fires.", oneIf(st.Firing))
	writeCounter(w, "dicer_"+prefix+"slo_alert_fires_total", "Lifetime SLO alert fire transitions.", st.Fires)
	writeCounter(w, "dicer_"+prefix+"slo_alert_firing_periods_total", "Periods spent with the alert firing.", b.firingPeriods)
	if len(st.Burns) > 0 {
		writeGauge(w, "dicer_"+prefix+"slo_burn_rate_short", "Short-window error-budget burn rate.", st.Burns[0])
		writeGauge(w, "dicer_"+prefix+"slo_burn_rate_long", "Long-window error-budget burn rate.", st.Burns[len(st.Burns)-1])
	}
}

// oneIf is 1 when b holds, else 0: a flag as a gauge value or a
// violating fraction.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MonitorConfig parameterises a single-node Monitor. The zero value is
// usable: SLO and the references are adopted from the trace header when
// the monitor is wired as a trace sink, and the link capacity always is
// (without one, link diagnostics are skipped). Every alerter runs
// slo.DefaultAlertConfig.
type MonitorConfig struct {
	// SLO is the HPs' target fraction of alone performance; the
	// slowdown target is its reciprocal. 0 = adopt the header's, when
	// every HP there shares one (0.9 otherwise).
	SLO float64
	// AloneIPC is the HP's alone-run reference. 0 = adopt from header;
	// without any reference the SLO/slowdown diagnostics are skipped
	// (Analyze falls back to the trace's peak HP IPC instead).
	AloneIPC float64
	// OnAlert, when set, observes every alert transition (the /events
	// SSE stream publishes from here). Called with the monitor lock
	// held; keep it fast and do not call back into the monitor.
	OnAlert func(slo.AlertEvent)
}

// Monitor is the single-node digest of the record stream, fed one
// obs.Record per monitoring period: record, decision and chaos-fault
// counters, the last period's gauges, percentile histograms (HP
// slowdown, link utilisation, mask-change interval), the SLO burn-rate
// alerter, and the decision-cause histogram (one cause per CLOS group
// and period). It implements obs.Sink
// (and HeaderSink, to adopt the trace header's SLO/reference values),
// so dicer-sim -serve wires it into a Scenario and renders /metrics
// from it; the offline analytics engine drives the identical code from
// a recorded trace, so live and offline diagnostics agree bit-for-bit.
//
// A Monitor is safe for concurrent Emit and snapshot/WriteProm calls.
type Monitor struct {
	mu  sync.Mutex
	cfg MonitorConfig

	slo      float64
	alone    float64
	linkGbps float64

	slowdown *Histogram
	linkUtil *Histogram
	interval *Histogram
	causes   map[string]int
	burn     burnTrack

	periods     int
	runs        int
	violations  int
	saturated   int
	guardVetoes int
	tolerated   int
	decisions   map[string]int // decision events by kind
	faults      map[string]int // injected chaos faults by class

	lastWays   int
	lastChange int
	// last is the latest record without its slices (they alias the
	// recorder's scratch): the source of the last-period gauges.
	last obs.Record
}

// NewMonitor builds a monitor.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{
		cfg:       cfg,
		slo:       cfg.SLO,
		alone:     cfg.AloneIPC,
		slowdown:  newSlowdownHist(),
		linkUtil:  newUtilHist(),
		interval:  newIntervalHist(),
		causes:    map[string]int{},
		burn:      burnTrack{alerter: slo.NewAlerter(slo.DefaultAlertConfig())},
		decisions: map[string]int{},
		faults:    map[string]int{},
		lastWays:  -1,
	}
}

// Start implements obs.HeaderSink: header values fill whatever the
// configuration left unset.
func (m *Monitor) Start(h obs.Header) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slo == 0 && len(h.SLOs) > 0 && slices.Min(h.SLOs) == slices.Max(h.SLOs) {
		m.slo = h.SLOs[0]
	}
	if m.slo == 0 {
		m.slo = 0.9
	}
	if m.alone == 0 {
		m.alone = h.HPAloneIPC
	}
	if m.linkGbps == 0 {
		m.linkGbps = h.LinkGbps
	}
	return nil
}

// Emit implements obs.Sink: fold one monitoring period in.
func (m *Monitor) Emit(r *obs.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.periods
	m.periods++
	m.last = *r
	m.last.Groups, m.last.Plan = nil, nil
	for i := range r.Groups {
		g := &r.Groups[i]
		for _, d := range g.Decisions {
			m.decisions[d]++
		}
		if g.Cause != "" {
			m.causes[g.Cause]++
		}
	}
	m.faults["dropout"] += r.Faults.Dropouts
	m.faults["frozen"] += r.Faults.FrozenReads
	m.faults["jittered"] += r.Faults.JitteredReads
	m.faults["write_rejected"] += r.Faults.WritesRejected
	m.faults["write_delayed"] += r.Faults.WritesDelayed

	violated := false
	if m.alone > 0 && r.HPIPC > 0 {
		sd := m.alone / r.HPIPC
		m.slowdown.Observe(sd)
		if m.slo > 0 {
			violated = r.HPIPC < m.slo*m.alone
		}
	}
	if violated {
		m.violations++
	}
	if m.linkGbps > 0 {
		m.linkUtil.Observe(r.TotalGbps / m.linkGbps)
	}
	if r.Saturated {
		m.saturated++
	}
	if r.Guard != "" {
		m.guardVetoes++
	}
	if r.Tolerated {
		m.tolerated++
	}
	if r.HPWays != m.lastWays {
		if m.lastWays >= 0 {
			m.interval.Observe(float64(p - m.lastChange))
		}
		m.lastWays = r.HPWays
		m.lastChange = p
	}

	if ev, changed := m.burn.step(p, oneIf(violated)); changed && m.cfg.OnAlert != nil {
		m.cfg.OnAlert(ev)
	}
}

// AddRun counts one completed run (dicer-sim -serve calls it per lap).
func (m *Monitor) AddRun() {
	m.mu.Lock()
	m.runs++
	m.mu.Unlock()
}

// Records returns the number of records observed.
func (m *Monitor) Records() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.periods
}

// Degraded reports whether the SLO burn-rate alert is firing — the
// /healthz degradation signal — with the reason attached: since when the
// alert has fired and how hot the burn rates run, so a 503 body says
// what is wrong instead of just that something is.
func (m *Monitor) Degraded() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.burn.alerter.Firing() {
		return false, ""
	}
	st := m.burn.alerter.State()
	return true, fmt.Sprintf("slo-burn alert firing since period %d (short-burn %.2f, long-burn %.2f)",
		st.Since, st.Burns[0], st.Burns[len(st.Burns)-1])
}

// AlertsSnapshot is the /alerts payload of a single-node monitor.
type AlertsSnapshot struct {
	SLO            float64         `json:"slo"`
	SlowdownTarget float64         `json:"slowdown_target,omitempty"`
	AloneIPC       float64         `json:"alone_ipc,omitempty"`
	Config         slo.AlertConfig `json:"config"`
	Aggregate      slo.AlertState  `json:"aggregate"`
	Nodes          []NodeAlert     `json:"nodes,omitempty"`
	// Events are the aggregate alerter's transitions; NodeEvents (fleet
	// only) carry every transition with node attribution (-1 =
	// aggregate).
	Events     []slo.AlertEvent  `json:"events"`
	NodeEvents []FleetAlertEvent `json:"node_events,omitempty"`
	Degraded   bool              `json:"degraded"`
}

// NodeAlert is one node's alert state inside a fleet snapshot.
type NodeAlert struct {
	Node  int            `json:"node"`
	Lost  bool           `json:"lost,omitempty"`
	State slo.AlertState `json:"state"`
}

// Snapshot captures the current alert state for serving.
func (m *Monitor) Snapshot() AlertsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := AlertsSnapshot{
		SLO:       m.slo,
		AloneIPC:  m.alone,
		Config:    m.burn.alerter.Config(),
		Aggregate: m.burn.alerter.State(),
		Events:    append([]slo.AlertEvent(nil), m.burn.events...),
		Degraded:  m.burn.alerter.Firing(),
	}
	if m.slo > 0 {
		s.SlowdownTarget = 1 / m.slo
	}
	return s
}

// WriteProm renders the monitor as Prometheus text, the record stream's
// part of dicer-sim -serve's /metrics: counters, the last period's
// gauges (once a record arrived), histograms and alert gauges.
func (m *Monitor) WriteProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	writeCounter(w, "dicer_records_total", "Monitoring-period trace records observed.", m.periods)
	writeCounter(w, "dicer_runs_total", "Completed scenario runs.", m.runs)
	writeLabelled(w, "dicer_decisions_total", "Controller decision events by kind.", "kind", m.decisions)
	writeCounter(w, "dicer_saturated_periods_total", "Periods with the memory link saturated.", m.saturated)
	writeCounter(w, "dicer_tolerated_faults_total", "Periods whose injected actuation fault was tolerated.", m.tolerated)
	writeCounter(w, "dicer_guard_violations_total", "Periods that tripped the runtime invariant guard.", m.guardVetoes)
	writeLabelled(w, "dicer_chaos_faults_total", "Injected chaos faults by class.", "type", m.faults)
	if m.periods > 0 {
		r := &m.last
		writeGauge(w, "dicer_period", "Last monitoring period index.", float64(r.Period))
		writeGauge(w, "dicer_hp_ways", "Intended HP partition size (ways).", float64(r.HPWays))
		writeGauge(w, "dicer_hp_ipc", "HP mean IPC over the last period.", r.HPIPC)
		writeGauge(w, "dicer_be_mean_ipc", "BE mean IPC over the last period.", r.BEMeanIPC)
		writeGauge(w, "dicer_hp_bw_gbps", "HP memory bandwidth over the last period.", r.HPBWGbps)
		writeGauge(w, "dicer_total_bw_gbps", "Total memory bandwidth over the last period.", r.TotalGbps)
		writeGauge(w, "dicer_hp_occupancy_bytes", "HP LLC occupancy at last period end.", r.HPOccBytes)
		writeGauge(w, "dicer_saturated", "1 when the last period was saturated.", oneIf(r.Saturated))
	}
	m.slowdown.WriteProm(w, "dicer_hp_slowdown", "Per-period HP slowdown vs alone run.")
	m.linkUtil.WriteProm(w, "dicer_link_utilisation", "Per-period memory-link utilisation.")
	m.interval.WriteProm(w, "dicer_mask_change_interval_periods", "Periods between HP allocation changes.")
	m.burn.writeProm(w, "")
}

// Report assembles the monitor's half of an analyze Report: everything
// except the trace-level metadata (schema, workload, policy, ref
// source), which the offline engine fills from the header.
func (m *Monitor) Report() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := &Report{
		SLO:      m.slo,
		AloneIPC: m.alone,
		Periods:  m.periods,
		Metrics: []Summary{
			m.slowdown.Summarise("hp_slowdown"),
			m.linkUtil.Summarise("link_utilisation"),
			m.interval.Summarise("mask_change_interval_periods"),
		},
		Alert:  m.burn.report(m.violations, m.periods),
		Causes: sortCauses(m.causes),
	}
	if m.slo > 0 {
		rep.SlowdownTarget = 1 / m.slo
	}
	rep.Counter = Counters{
		Saturated:   m.saturated,
		GuardVetoes: m.guardVetoes,
		Tolerated:   m.tolerated,
	}
	return rep
}

// sortCauses flattens a cause histogram deterministically: descending
// count, then lexicographic.
func sortCauses(causes map[string]int) []CauseCount {
	out := make([]CauseCount, 0, len(causes))
	for c, n := range causes {
		out = append(out, CauseCount{Cause: c, Periods: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Periods != out[j].Periods {
			return out[i].Periods > out[j].Periods
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

var (
	_ obs.Sink       = (*Monitor)(nil)
	_ obs.HeaderSink = (*Monitor)(nil)
)

// nodeState is the per-node diagnostic state of a FleetMonitor.
type nodeState struct {
	alerter    *slo.Alerter
	slowdown   *Histogram
	periods    int
	violations int
	lost       bool
	firingP    int
}

// FleetMonitorConfig parameterises a FleetMonitor.
type FleetMonitorConfig struct {
	// SLO is the HPs' target fraction of alone performance (informational;
	// the heartbeats carry the violation verdicts). Default 0.9.
	SLO float64
	// LinkGbps is each node's link capacity; 0 = adopt from the cluster
	// trace header (link diagnostics are skipped without one).
	LinkGbps float64
	// OnAlert observes alert transitions; node is the node ID, or -1
	// for the fleet aggregate. Called with the monitor lock held.
	OnAlert func(node int, ev slo.AlertEvent)
}

// FleetMonitor is the cluster-level digest of the record stream: the
// cluster's admission, placement, chaos and control-event counters and
// the last period's gauges and per-node gauges, fleet-wide histograms
// (per-node-period HP slowdown, fleet EFU, link utilisation), one
// burn-rate alerter per node plus a fleet aggregate (fed the violating
// fraction of live nodes), and per-node outlier bookkeeping. It
// consumes fleet.ClusterRecord — the cluster's OnPeriod callback live
// (dicer-fleet -serve renders /metrics from it), the recorded trace
// offline — so both paths agree bit-for-bit.
//
// A FleetMonitor is safe for concurrent ObserveRecord and snapshot
// calls.
type FleetMonitor struct {
	mu  sync.Mutex
	cfg FleetMonitorConfig

	slo      float64
	linkGbps float64

	slowdown *Histogram
	efu      *Histogram
	linkUtil *Histogram
	// agg is the fleet-aggregate alerter; its transitions are the
	// report's alert timeline. events holds every transition with node
	// attribution (-1 = aggregate) for the /alerts snapshot.
	agg    burnTrack
	events []FleetAlertEvent

	nodes map[int]*nodeState

	periods    int
	violations int // node-periods
	lostNodes  int

	// sum holds each count field summed over every record; actions
	// counts the records' control events by cause.
	sum     fleet.ClusterRecord
	actions map[string]int
	// last is the latest record without its events; its Nodes are the
	// monitor's own copy, sorted by node.
	last fleet.ClusterRecord
}

// FleetAlertEvent is an alert transition attributed to its source: a
// node ID, or -1 for the fleet aggregate.
type FleetAlertEvent struct {
	Node int `json:"node"`
	slo.AlertEvent
}

// NewFleetMonitor builds a fleet monitor.
func NewFleetMonitor(cfg FleetMonitorConfig) *FleetMonitor {
	target := cfg.SLO
	if target == 0 {
		target = 0.9
	}
	return &FleetMonitor{
		cfg:      cfg,
		slo:      target,
		linkGbps: cfg.LinkGbps,
		slowdown: newSlowdownHist(),
		efu:      NewHistogram(0.005, 1.5, 50),
		linkUtil: newUtilHist(),
		agg:      burnTrack{alerter: slo.NewAlerter(slo.DefaultAlertConfig())},
		nodes:    map[int]*nodeState{},
		actions:  map[string]int{},
	}
}

// StartHeader adopts reference values from a cluster trace header.
func (m *FleetMonitor) StartHeader(h fleet.TraceHeader) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.SLO == 0 && h.SLO > 0 {
		m.slo = h.SLO
	}
	if m.linkGbps == 0 {
		m.linkGbps = h.LinkGbps
	}
}

func (m *FleetMonitor) node(id int) *nodeState {
	n := m.nodes[id]
	if n == nil {
		n = &nodeState{
			alerter:  slo.NewAlerter(slo.DefaultAlertConfig()),
			slowdown: newSlowdownHist(),
		}
		m.nodes[id] = n
	}
	return n
}

// ObserveRecord folds one cluster monitoring period in.
func (m *FleetMonitor) ObserveRecord(rec *fleet.ClusterRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.periods++
	m.efu.Observe(rec.FleetEFU)
	s := &m.sum
	s.Arrivals += rec.Arrivals
	s.Admitted += rec.Admitted
	s.Rejected += rec.Rejected
	s.Placed += rec.Placed
	s.Requeued += rec.Requeued
	s.Dropped += rec.Dropped
	s.Done += rec.Done
	s.Freezes += rec.Freezes
	s.Losses += rec.Losses
	s.Evicted += rec.Evicted
	s.Incidents += rec.Incidents
	s.SLOViolations += rec.SLOViolations
	for i := range rec.Events {
		m.actions[rec.Events[i].Cause]++
	}
	hbs := m.last.Nodes[:0] // reuse the previous copy's array
	m.last = *rec
	m.last.Events = nil
	m.last.Nodes = append(hbs, rec.Nodes...)
	// The fleet emits heartbeats in node order; sort only other input.
	byNode := func(a, b fleet.Heartbeat) int { return cmp.Compare(a.Node, b.Node) }
	if !slices.IsSortedFunc(m.last.Nodes, byNode) {
		slices.SortFunc(m.last.Nodes, byNode)
	}

	live := 0
	violating := 0
	lost := 0
	for i := range rec.Nodes {
		hb := &rec.Nodes[i]
		if hb.Retired {
			// Autoscaled-away nodes leave the population entirely: they
			// are neither live (no readings) nor lost (not a failure).
			continue
		}
		n := m.node(hb.Node)
		n.lost = hb.Lost
		if hb.Lost {
			lost++
			continue
		}
		if hb.Frozen {
			continue
		}
		live++
		n.periods++
		if hb.HPNorm > 0 {
			sd := 1 / hb.HPNorm
			m.slowdown.Observe(sd)
			n.slowdown.Observe(sd)
		}
		if m.linkGbps > 0 {
			m.linkUtil.Observe(hb.TotalGbps / m.linkGbps)
		}
		frac := 0.0
		if hb.SLOViolated {
			frac = 1
			violating++
			n.violations++
			m.violations++
		}
		if ev, changed := n.alerter.Step(frac); changed {
			m.alert(hb.Node, ev)
		}
		if n.alerter.Firing() {
			n.firingP++
		}
	}
	m.lostNodes = lost

	frac := 0.0
	if live > 0 {
		frac = float64(violating) / float64(live)
	}
	if ev, changed := m.agg.step(m.periods-1, frac); changed {
		m.alert(-1, ev)
	}
}

// alert records a transition with its source and passes it to OnAlert;
// the lock is held.
func (m *FleetMonitor) alert(node int, ev slo.AlertEvent) {
	if len(m.events) < maxEvents {
		m.events = append(m.events, FleetAlertEvent{Node: node, AlertEvent: ev})
	}
	if m.cfg.OnAlert != nil {
		m.cfg.OnAlert(node, ev)
	}
}

// Periods returns the number of cluster periods observed.
func (m *FleetMonitor) Periods() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.periods
}

// Degraded reports the /healthz degradation signal: a firing alert
// (aggregate or any node) or a lost node. The reason names the exact
// source — which nodes are lost, which alerts fire and how hot their
// burn rates run — so a 503 body is actionable without a second query.
func (m *FleetMonitor) Degraded() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lostNodes > 0 {
		var lost []string
		for _, id := range m.nodeIDs() {
			if m.nodes[id].lost {
				lost = append(lost, strconv.Itoa(id))
			}
		}
		return true, fmt.Sprintf("node(s) lost: %s", strings.Join(lost, ","))
	}
	if m.agg.alerter.Firing() {
		st := m.agg.alerter.State()
		return true, fmt.Sprintf("fleet slo-burn alert firing since period %d (short-burn %.2f, long-burn %.2f)",
			st.Since, st.Burns[0], st.Burns[len(st.Burns)-1])
	}
	var firing []string
	for _, id := range m.nodeIDs() {
		if m.nodes[id].alerter.Firing() {
			firing = append(firing, strconv.Itoa(id))
		}
	}
	if len(firing) > 0 {
		return true, fmt.Sprintf("slo-burn alert firing on node(s) %s", strings.Join(firing, ","))
	}
	return false, ""
}

// nodeIDs returns the known node IDs sorted; the lock is held.
func (m *FleetMonitor) nodeIDs() []int {
	ids := make([]int, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Snapshot captures the fleet alert state for /alerts.
func (m *FleetMonitor) Snapshot() AlertsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := AlertsSnapshot{
		SLO:        m.slo,
		Config:     m.agg.alerter.Config(),
		Aggregate:  m.agg.alerter.State(),
		Events:     append([]slo.AlertEvent(nil), m.agg.events...),
		NodeEvents: append([]FleetAlertEvent(nil), m.events...),
	}
	if m.slo > 0 {
		s.SlowdownTarget = 1 / m.slo
	}
	for _, id := range m.nodeIDs() {
		n := m.nodes[id]
		s.Nodes = append(s.Nodes, NodeAlert{Node: id, Lost: n.lost, State: n.alerter.State()})
		if n.alerter.Firing() {
			s.Degraded = true
		}
	}
	if m.agg.alerter.Firing() || m.lostNodes > 0 {
		s.Degraded = true
	}
	return s
}

// WriteProm renders the monitor as Prometheus text, the record stream's
// part of dicer-fleet -serve's /metrics: counters, the last period's
// gauges and per-node gauges (once a record arrived), histograms and
// the aggregate alert gauges.
func (m *FleetMonitor) WriteProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.sum
	writeCounter(w, "dicer_fleet_periods_total", "Cluster monitoring periods observed.", m.periods)
	writeCounter(w, "dicer_fleet_arrivals_total", "Best-effort job arrivals.", s.Arrivals)
	writeCounter(w, "dicer_fleet_admitted_total", "Arrivals admitted to the queue.", s.Admitted)
	writeCounter(w, "dicer_fleet_rejected_total", "Arrivals rejected by admission control.", s.Rejected)
	writeCounter(w, "dicer_fleet_placements_total", "Job placements, including re-placements after node loss.", s.Placed)
	writeCounter(w, "dicer_fleet_requeued_total", "Orphaned jobs re-queued after node loss.", s.Requeued)
	writeCounter(w, "dicer_fleet_dropped_total", "Jobs dropped after exhausting placement attempts.", s.Dropped)
	writeCounter(w, "dicer_fleet_done_total", "Jobs completed.", s.Done)
	writeCounter(w, "dicer_fleet_node_freezes_total", "Node freeze events.", s.Freezes)
	writeCounter(w, "dicer_fleet_node_losses_total", "Node loss events.", s.Losses)
	writeCounter(w, "dicer_fleet_evictions_total", "BE jobs migrated off burning nodes.", s.Evicted)
	writeCounter(w, "dicer_fleet_migrations_total", "SLO-burn migration decisions (one per burning node acted on).", m.actions[fleet.CauseMigration])
	writeCounter(w, "dicer_fleet_repacks_total", "Repartition-first repacks (cache plans re-clustered fleet-wide).", m.actions[fleet.CauseRepack])
	writeCounter(w, "dicer_fleet_scale_ups_total", "Autoscaler scale-up decisions.", m.actions[fleet.CauseScaleUp])
	writeCounter(w, "dicer_fleet_scale_downs_total", "Autoscaler drain/retire decisions.", m.actions[fleet.CauseScaleDown])
	writeCounter(w, "dicer_fleet_incidents_total", "Forensic incident bundles sealed by the flight recorder.", s.Incidents)
	writeCounter(w, "dicer_fleet_slo_violations_total", "Per-node, per-period HP SLO misses.", s.SLOViolations)
	if m.periods > 0 {
		r := &m.last
		writeGauge(w, "dicer_fleet_period", "Last cluster period index.", float64(r.Period))
		writeGauge(w, "dicer_fleet_queue_len", "Jobs waiting for placement.", float64(r.QueueLen))
		writeGauge(w, "dicer_fleet_running", "Jobs running across the fleet.", float64(r.Running))
		writeGauge(w, "dicer_fleet_efu", "Last period's fleet EFU.", r.FleetEFU)
		if r.NodesLive > 0 {
			writeGauge(w, "dicer_fleet_nodes_live", "Working (non-retired, non-lost) nodes.", float64(r.NodesLive))
		}
		if r.Quarantined > 0 {
			writeGauge(w, "dicer_fleet_quarantined", "Nodes quarantined out of the placement candidate set.", float64(r.Quarantined))
		}
		writeNodeGauge(w, "dicer_fleet_node_state", "Node health: 0 live, 1 frozen, 2 lost, 3 retired.",
			r.Nodes, func(hb *fleet.Heartbeat) float64 {
				switch {
				case hb.Retired:
					return 3
				case hb.Lost:
					return 2
				case hb.Frozen:
					return 1
				}
				return 0
			})
		writeNodeGauge(w, "dicer_fleet_node_be_count", "BE jobs running on the node.",
			r.Nodes, func(hb *fleet.Heartbeat) float64 { return float64(hb.BECount) })
		writeNodeGauge(w, "dicer_fleet_node_hp_norm", "Node HP normalised IPC.",
			r.Nodes, func(hb *fleet.Heartbeat) float64 { return hb.HPNorm })
		writeNodeGauge(w, "dicer_fleet_node_total_bw_gbps", "Node memory bandwidth.",
			r.Nodes, func(hb *fleet.Heartbeat) float64 { return hb.TotalGbps })
	}
	m.slowdown.WriteProm(w, "dicer_fleet_hp_slowdown", "Per-node-period HP slowdown vs alone run.")
	m.efu.WriteProm(w, "dicer_fleet_efu_hist", "Per-period fleet effective utilisation.")
	m.linkUtil.WriteProm(w, "dicer_fleet_link_utilisation", "Per-node-period memory-link utilisation.")
	m.agg.writeProm(w, "fleet_")
}

// NodeReport is one node's row of the fleet analyze report.
type NodeReport struct {
	Node          int     `json:"node"`
	Periods       int     `json:"periods"`
	Violations    int     `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
	SlowdownP50   float64 `json:"slowdown_p50"`
	SlowdownP99   float64 `json:"slowdown_p99"`
	SlowdownMax   float64 `json:"slowdown_max"`
	Fires         int     `json:"fires"`
	FiringPeriods int     `json:"firing_periods"`
	Lost          bool    `json:"lost,omitempty"`
	// Outlier flags nodes violating at >= 2x the fleet-mean rate (and
	// at least once): where to look first.
	Outlier bool `json:"outlier,omitempty"`
}

// Report assembles the fleet half of an analyze Report (trace-level
// metadata left to the caller).
func (m *FleetMonitor) Report() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodePeriods := 0
	for _, n := range m.nodes {
		nodePeriods += n.periods
	}
	rep := &Report{
		SLO:     m.slo,
		Periods: m.periods,
		Metrics: []Summary{
			m.slowdown.Summarise("hp_slowdown"),
			m.efu.Summarise("fleet_efu"),
			m.linkUtil.Summarise("link_utilisation"),
		},
		Alert: m.agg.report(m.violations, nodePeriods),
	}
	if m.slo > 0 {
		rep.SlowdownTarget = 1 / m.slo
	}
	meanRate := rep.Alert.ViolationRate
	for _, id := range m.nodeIDs() {
		n := m.nodes[id]
		nr := NodeReport{
			Node:          id,
			Periods:       n.periods,
			Violations:    n.violations,
			SlowdownP50:   n.slowdown.Quantile(0.5),
			SlowdownP99:   n.slowdown.Quantile(0.99),
			SlowdownMax:   n.slowdown.Max(),
			Fires:         n.alerter.State().Fires,
			FiringPeriods: n.firingP,
			Lost:          n.lost,
		}
		if n.periods > 0 {
			nr.ViolationRate = float64(n.violations) / float64(n.periods)
		}
		nr.Outlier = n.violations > 0 && meanRate > 0 && nr.ViolationRate >= 2*meanRate
		rep.Nodes = append(rep.Nodes, nr)
	}
	return rep
}
