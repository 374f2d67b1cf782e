package diag

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dicer/internal/fleet"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/slo"
)

// writeGauge forwards to the shared Prometheus text writer.
func writeGauge(w io.Writer, name, help string, v float64) {
	metrics.WritePromGauge(w, name, help, v)
}

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

// MonitorConfig parameterises a single-node Monitor. The zero value is
// usable: SLO and the references are adopted from the trace header when
// the monitor is wired as a trace sink.
type MonitorConfig struct {
	// SLO is the HP's target fraction of alone performance; the
	// slowdown target is its reciprocal. 0 = adopt from header (0.9
	// when the header has none).
	SLO float64
	// AloneIPC is the HP's alone-run reference. 0 = adopt from header;
	// without any reference the SLO/slowdown diagnostics are skipped
	// (Analyze falls back to the trace's peak HP IPC instead).
	AloneIPC float64
	// LinkGbps is the memory-link capacity for link utilisation. 0 =
	// adopt from header; without one link diagnostics are skipped.
	LinkGbps float64
	// Alert configures the burn-rate alerter; zero = DefaultAlertConfig.
	Alert slo.AlertConfig
	// OnAlert, when set, observes every alert transition (the /events
	// SSE stream publishes from here). Called with the monitor lock
	// held; keep it fast and do not call back into the monitor.
	OnAlert func(slo.AlertEvent)
}

func (c MonitorConfig) alertConfig() slo.AlertConfig {
	if len(c.Alert.Windows) == 0 {
		return slo.DefaultAlertConfig()
	}
	return c.Alert
}

// Monitor is the single-node diagnostic pipeline: percentile histograms
// (HP slowdown, link utilisation, mask-change interval), the SLO
// burn-rate alerter, and the decision-cause histogram, all fed one
// obs.Record per monitoring period. It implements obs.Sink (and
// HeaderSink, to adopt the trace header's SLO/reference values), so it
// wires into a Scenario next to the Prometheus exporter; the offline
// analytics engine drives the identical code from a recorded trace, so
// live and offline diagnostics agree bit-for-bit.
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
	alerter  *slo.Alerter

	periods       int
	violations    int
	saturated     int
	guardVetoes   int
	tolerated     int
	firingPeriods int

	lastWays   int
	lastChange int

	events   []slo.AlertEvent
	timeline []BurnPoint
}

// NewMonitor builds a monitor.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{
		cfg:      cfg,
		slo:      cfg.SLO,
		alone:    cfg.AloneIPC,
		linkGbps: cfg.LinkGbps,
		slowdown: newSlowdownHist(),
		linkUtil: newUtilHist(),
		interval: newIntervalHist(),
		causes:   map[string]int{},
		alerter:  slo.NewAlerter(cfg.alertConfig()),
		lastWays: -1,
	}
}

// Start implements obs.HeaderSink: header values fill whatever the
// configuration left unset.
func (m *Monitor) Start(h obs.Header) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slo == 0 {
		m.slo = h.SLO
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
	if r.Cause != "" {
		m.causes[r.Cause]++
	}
	if r.HPWays != m.lastWays {
		if m.lastWays >= 0 {
			m.interval.Observe(float64(p - m.lastChange))
		}
		m.lastWays = r.HPWays
		m.lastChange = p
	}

	frac := 0.0
	if violated {
		frac = 1
	}
	m.step(frac)
}

// step drives the alerter and the shared bookkeeping; the lock is held.
func (m *Monitor) step(violFrac float64) {
	ev, changed := m.alerter.Step(violFrac)
	if changed {
		if len(m.events) < maxEvents {
			m.events = append(m.events, ev)
		}
		if m.cfg.OnAlert != nil {
			m.cfg.OnAlert(ev)
		}
	}
	if m.alerter.Firing() {
		m.firingPeriods++
	}
	if len(m.timeline) < maxTimeline {
		burns := m.alerter.Burns()
		m.timeline = append(m.timeline, BurnPoint{
			Period: m.periods - 1,
			Short:  burns[0],
			Long:   burns[len(burns)-1],
			Firing: m.alerter.Firing(),
		})
	}
}

// Firing reports whether the SLO burn-rate alert is currently firing —
// the /healthz degradation signal.
func (m *Monitor) Firing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alerter.Firing()
}

// Degraded is Firing with the reason attached: since when the alert has
// fired and how hot the burn rates run, so a 503 body says what is
// wrong instead of just that something is.
func (m *Monitor) Degraded() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.alerter.Firing() {
		return false, ""
	}
	st := m.alerter.State()
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
		Config:    m.alerter.Config(),
		Aggregate: m.alerter.State(),
		Events:    append([]slo.AlertEvent(nil), m.events...),
		Degraded:  m.alerter.Firing(),
	}
	if m.slo > 0 {
		s.SlowdownTarget = 1 / m.slo
	}
	return s
}

// WriteProm renders the monitor's histograms as Prometheus text; the
// serve modes append it to the exporter's /metrics output.
func (m *Monitor) WriteProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slowdown.WriteProm(w, "dicer_hp_slowdown", "Per-period HP slowdown vs alone run.")
	m.linkUtil.WriteProm(w, "dicer_link_utilisation", "Per-period memory-link utilisation.")
	m.interval.WriteProm(w, "dicer_mask_change_interval_periods", "Periods between HP allocation changes.")
	writeAlertProm(w, "", m.alerter, m.firingPeriods)
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
		Alert:  m.alertReport(),
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

// alertReport summarises the alerter; the lock is held.
func (m *Monitor) alertReport() AlertReport {
	ar := AlertReport{
		Config:        m.alerter.Config(),
		Violations:    m.violations,
		FiringPeriods: m.firingPeriods,
		Fires:         m.alerter.State().Fires,
		FinalFiring:   m.alerter.Firing(),
		Events:        append([]slo.AlertEvent(nil), m.events...),
		Timeline:      append([]BurnPoint(nil), m.timeline...),
	}
	if m.periods > 0 {
		ar.ViolationRate = float64(m.violations) / float64(m.periods)
	}
	return ar
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
	// Alert configures every alerter (per node and aggregate); zero =
	// DefaultAlertConfig.
	Alert slo.AlertConfig
	// OnAlert observes alert transitions; node is the node ID, or -1
	// for the fleet aggregate. Called with the monitor lock held.
	OnAlert func(node int, ev slo.AlertEvent)
}

func (c FleetMonitorConfig) alertConfig() slo.AlertConfig {
	if len(c.Alert.Windows) == 0 {
		return slo.DefaultAlertConfig()
	}
	return c.Alert
}

// FleetMonitor is the cluster-level diagnostic pipeline: fleet-wide
// histograms (per-node-period HP slowdown, fleet EFU, link
// utilisation), one burn-rate alerter per node plus a fleet aggregate
// (fed the violating fraction of live nodes), and per-node outlier
// bookkeeping. It consumes fleet.ClusterRecord — the cluster's
// OnPeriod callback live, the recorded trace offline — so both paths
// agree bit-for-bit.
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
	agg      *slo.Alerter

	nodes map[int]*nodeState

	periods       int
	violations    int // node-periods
	lostNodes     int
	firingPeriods int

	// aggEvents holds the fleet-aggregate alerter's transitions (the
	// report's alert timeline); events holds every transition with node
	// attribution (-1 = aggregate) for the /alerts snapshot.
	aggEvents []slo.AlertEvent
	events    []FleetAlertEvent
	timeline  []BurnPoint
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
		agg:      slo.NewAlerter(cfg.alertConfig()),
		nodes:    map[int]*nodeState{},
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
			alerter:  slo.NewAlerter(m.cfg.alertConfig()),
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
			if len(m.events) < maxEvents {
				m.events = append(m.events, FleetAlertEvent{Node: hb.Node, AlertEvent: ev})
			}
			if m.cfg.OnAlert != nil {
				m.cfg.OnAlert(hb.Node, ev)
			}
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
	if ev, changed := m.agg.Step(frac); changed {
		if len(m.events) < maxEvents {
			m.events = append(m.events, FleetAlertEvent{Node: -1, AlertEvent: ev})
		}
		if len(m.aggEvents) < maxEvents {
			m.aggEvents = append(m.aggEvents, ev)
		}
		if m.cfg.OnAlert != nil {
			m.cfg.OnAlert(-1, ev)
		}
	}
	if m.agg.Firing() {
		m.firingPeriods++
	}
	if len(m.timeline) < maxTimeline {
		burns := m.agg.Burns()
		m.timeline = append(m.timeline, BurnPoint{
			Period: m.periods - 1,
			Short:  burns[0],
			Long:   burns[len(burns)-1],
			Firing: m.agg.Firing(),
		})
	}
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
	if m.agg.Firing() {
		st := m.agg.State()
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
		Config:     m.agg.Config(),
		Aggregate:  m.agg.State(),
		Events:     append([]slo.AlertEvent(nil), m.aggEvents...),
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
	if m.agg.Firing() || m.lostNodes > 0 {
		s.Degraded = true
	}
	return s
}

// WriteProm renders the fleet histograms and alert gauges.
func (m *FleetMonitor) WriteProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slowdown.WriteProm(w, "dicer_fleet_hp_slowdown", "Per-node-period HP slowdown vs alone run.")
	m.efu.WriteProm(w, "dicer_fleet_efu_hist", "Per-period fleet effective utilisation.")
	m.linkUtil.WriteProm(w, "dicer_fleet_link_utilisation", "Per-node-period memory-link utilisation.")
	writeAlertProm(w, "fleet_", m.agg, m.firingPeriods)
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
	rep := &Report{
		SLO:     m.slo,
		Periods: m.periods,
		Metrics: []Summary{
			m.slowdown.Summarise("hp_slowdown"),
			m.efu.Summarise("fleet_efu"),
			m.linkUtil.Summarise("link_utilisation"),
		},
		Alert: AlertReport{
			Config:        m.agg.Config(),
			Violations:    m.violations,
			FiringPeriods: m.firingPeriods,
			Fires:         m.agg.State().Fires,
			FinalFiring:   m.agg.Firing(),
			Events:        append([]slo.AlertEvent(nil), m.aggEvents...),
			Timeline:      append([]BurnPoint(nil), m.timeline...),
		},
	}
	if m.slo > 0 {
		rep.SlowdownTarget = 1 / m.slo
	}
	meanRate := 0.0
	nodePeriods := 0
	for _, n := range m.nodes {
		nodePeriods += n.periods
	}
	if nodePeriods > 0 {
		meanRate = float64(m.violations) / float64(nodePeriods)
		rep.Alert.ViolationRate = meanRate
	}
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

// writeAlertProm renders an alerter's gauges under a dicer_<prefix>
// namespace.
func writeAlertProm(w io.Writer, prefix string, a *slo.Alerter, firingPeriods int) {
	st := a.State()
	firing := 0.0
	if st.Firing {
		firing = 1
	}
	writeGauge(w, "dicer_"+prefix+"slo_alert_firing", "1 while the SLO burn-rate alert fires.", firing)
	writeGauge(w, "dicer_"+prefix+"slo_alert_fires_total", "Lifetime SLO alert fire transitions.", float64(st.Fires))
	writeGauge(w, "dicer_"+prefix+"slo_alert_firing_periods_total", "Periods spent with the alert firing.", float64(firingPeriods))
	if len(st.Burns) > 0 {
		writeGauge(w, "dicer_"+prefix+"slo_burn_rate_short", "Short-window error-budget burn rate.", st.Burns[0])
		writeGauge(w, "dicer_"+prefix+"slo_burn_rate_long", "Long-window error-budget burn rate.", st.Burns[len(st.Burns)-1])
	}
}
