package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dicer/internal/obs"
	"dicer/internal/slo"
)

// Incident forensics: the fleet's black-box flight recorder. Full JSONL
// tracing of a 1000-node cluster is too heavy to leave on, so when
// forensics is armed every node instead keeps a fixed-capacity ring of
// FlightEntry values — the heartbeat plus the node controller's decision
// provenance for the period, pushed serially after the stepping barrier
// at a cost of one struct copy per node per period, allocation-free
// warm. When something goes wrong (a node's SLO-burn alert transitions
// to firing, chaos freezes or loses a node), the trigger marks the node
// and the recorder keeps running for TailPeriods more before sealing the
// ring, together with the fleet control events in the same window, into
// a deterministic byte-stable incident bundle. The bundles feed
// `dicer-trace explain` and the `/incidents` endpoint; identical runs
// produce identical bundles, so a live dump and its committed golden are
// interchangeable evidence.

// IncidentSchema identifies the incident bundle format: the first line
// of a bundle is an IncidentManifest carrying this tag, every following
// line an incidentLine ("flight" entries first, oldest to newest, then
// "event" lines in emission order).
const IncidentSchema = "dicer-incident/v1"

// Incident trigger kinds.
const (
	// TriggerSLOBurn marks a per-node burn-rate alert transitioning to
	// firing.
	TriggerSLOBurn = "slo-burn"
	// TriggerNodeLoss / TriggerNodeFreeze mark node chaos events.
	TriggerNodeLoss   = "node-loss"
	TriggerNodeFreeze = "node-freeze"
)

// ForensicsConfig arms the fleet flight recorder.
type ForensicsConfig struct {
	// Enabled turns the recorder on. The zero value keeps stepping
	// byte-identical to a fleet without forensics.
	Enabled bool `json:"enabled"`
	// WindowPeriods is the pre-trigger window W each node's ring
	// retains. Default 48.
	WindowPeriods int `json:"window_periods"`
	// TailPeriods is how long the recorder keeps running after a
	// trigger before sealing the bundle, so the bundle shows the
	// aftermath too. Default 8.
	TailPeriods int `json:"tail_periods"`
	// CooldownPeriods is the minimum spacing between two incidents on
	// the same node (alerts flap; bundles should not). Default 30.
	CooldownPeriods int `json:"cooldown_periods"`
	// MaxIncidents bounds retained bundles per run; triggers beyond it
	// are counted and dropped. Default 16.
	MaxIncidents int `json:"max_incidents"`
}

// withDefaults fills unset fields in place (only when enabled, so a
// zero config stays zero and existing headers stay byte-identical).
func (f *ForensicsConfig) withDefaults() {
	if !f.Enabled {
		return
	}
	if f.WindowPeriods == 0 {
		f.WindowPeriods = 48
	}
	if f.TailPeriods == 0 {
		f.TailPeriods = 8
	}
	if f.CooldownPeriods == 0 {
		f.CooldownPeriods = 30
	}
	if f.MaxIncidents == 0 {
		f.MaxIncidents = 16
	}
}

// validate reports configuration errors.
func (f ForensicsConfig) validate() error {
	if !f.Enabled {
		return nil
	}
	if f.WindowPeriods < 1 {
		return fmt.Errorf("fleet: forensics window %d < 1", f.WindowPeriods)
	}
	if f.TailPeriods < 0 {
		return fmt.Errorf("fleet: negative forensics tail %d", f.TailPeriods)
	}
	if f.CooldownPeriods < 1 {
		return fmt.Errorf("fleet: forensics cooldown %d < 1", f.CooldownPeriods)
	}
	if f.MaxIncidents < 1 {
		return fmt.Errorf("fleet: forensics max incidents %d < 1", f.MaxIncidents)
	}
	return nil
}

// FlightEntry is one node-period of black-box evidence: the heartbeat
// the cluster aggregated, the node controller's decision provenance for
// the period (state, final cause tag, decision count, recluster flag),
// and the node's burn rates after the period's alerter step.
type FlightEntry struct {
	Period int `json:"period"`
	Heartbeat
	// State is the node controller's state machine position after the
	// period, for the group that decided last (a period without
	// decisions repeats the last state read); Cause the period's final
	// decision cause tag (core.EventKind.Cause — empty on periods
	// without decisions and on policies without a controller);
	// Decisions the number of decision events the controller emitted
	// this period.
	State     string `json:"state,omitempty"`
	Cause     string `json:"cause,omitempty"`
	Decisions int    `json:"decisions,omitempty"`
	// Reclustered marks a period in which a multi-HP node's grouping
	// plan changed.
	Reclustered bool `json:"reclustered,omitempty"`
	// BurnShort / BurnLong are the node alerter's shortest and longest
	// window burn rates; AlertFiring its state. All zero when no
	// alerter is armed for the node (or the node missed its heartbeat).
	BurnShort   float64 `json:"burn_short,omitempty"`
	BurnLong    float64 `json:"burn_long,omitempty"`
	AlertFiring bool    `json:"alert_firing,omitempty"`
}

// TimedEvent is a fleet control event stamped with its period, the unit
// the fleet-wide event ring retains.
type TimedEvent struct {
	Period int `json:"period"`
	FleetEvent
}

// IncidentManifest is the first line of an incident bundle: the
// trigger, the window in scope, and enough of the fleet configuration
// to interpret the evidence without the full cluster trace, including
// the burn-rate rule the run's alerters ran (slo.DefaultAlertConfig).
type IncidentManifest struct {
	Schema  string `json:"schema"`
	Seq     int    `json:"seq"`
	Trigger string `json:"trigger"`
	Node    int    `json:"node"`
	// Period is the trigger period; WindowFrom/WindowTo bound the
	// flight entries in the bundle (the trigger sits TailPeriods before
	// WindowTo unless the run ended first).
	Period     int    `json:"period"`
	Detail     string `json:"detail,omitempty"`
	WindowFrom int    `json:"window_from"`
	WindowTo   int    `json:"window_to"`

	Policy     string          `json:"policy"`
	Scheduler  string          `json:"scheduler"`
	Nodes      int             `json:"nodes"`
	HPsPerNode int             `json:"hps_per_node,omitempty"`
	SLO        float64         `json:"slo"`
	LinkGbps   float64         `json:"link_gbps,omitempty"`
	PeriodSec  float64         `json:"period_sec"`
	NodeChaos  string          `json:"node_chaos,omitempty"`
	Alert      slo.AlertConfig `json:"alert"`
}

// Incident is one sealed bundle: the triggering node's flight window
// plus every fleet control event inside it. Incidents are immutable
// once sealed; the cluster hands out shared pointers.
type Incident struct {
	Manifest IncidentManifest `json:"manifest"`
	Flight   []FlightEntry    `json:"flight"`
	Events   []TimedEvent     `json:"events,omitempty"`
}

// incidentLine is one post-manifest line of a serialised bundle.
type incidentLine struct {
	Kind   string       `json:"kind"` // "flight" | "event"
	Flight *FlightEntry `json:"flight,omitempty"`
	Event  *TimedEvent  `json:"event,omitempty"`
}

// Filename returns the bundle's canonical file name, sortable by
// sequence number.
func (inc *Incident) Filename() string {
	m := &inc.Manifest
	return fmt.Sprintf("incident-%03d-p%04d-n%03d-%s.jsonl", m.Seq, m.Period, m.Node, m.Trigger)
}

// Dump serialises the bundle as deterministic JSONL: the manifest
// line, the flight entries oldest-first, then the control events in
// emission order. Identical incidents produce identical bytes.
func (inc *Incident) Dump(w io.Writer) error {
	lw := obs.NewLineWriter(w)
	lw.WriteLine(&inc.Manifest)
	for i := range inc.Flight {
		lw.WriteLine(incidentLine{Kind: "flight", Flight: &inc.Flight[i]})
	}
	for i := range inc.Events {
		lw.WriteLine(incidentLine{Kind: "event", Event: &inc.Events[i]})
	}
	return lw.Flush()
}

// ReadIncident parses a bundle written by Dump.
func ReadIncident(r io.Reader) (*Incident, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("fleet: empty incident bundle")
	}
	inc := &Incident{}
	if err := json.Unmarshal(sc.Bytes(), &inc.Manifest); err != nil {
		return nil, fmt.Errorf("fleet: bad incident manifest: %w", err)
	}
	if inc.Manifest.Schema != IncidentSchema {
		return nil, fmt.Errorf("fleet: incident schema %q, want %q", inc.Manifest.Schema, IncidentSchema)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l incidentLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("fleet: bad incident line %d: %w", line, err)
		}
		switch {
		case l.Kind == "flight" && l.Flight != nil:
			inc.Flight = append(inc.Flight, *l.Flight)
		case l.Kind == "event" && l.Event != nil:
			inc.Events = append(inc.Events, *l.Event)
		default:
			return nil, fmt.Errorf("fleet: incident line %d has kind %q", line, l.Kind)
		}
	}
	return inc, sc.Err()
}

// pendingIncident is a trigger whose post-trigger tail is still being
// recorded.
type pendingIncident struct {
	trigger string
	node    int
	period  int // trigger period
	detail  string
	sealAt  int // sealed once this period's entries are recorded
}

// forensics is the cluster's recorder state. All access is under the
// cluster's step lock.
type forensics struct {
	cfg ForensicsConfig
	// manifest is the run's configuration context, which every bundle's
	// manifest copies before seal stamps its own fields.
	manifest IncidentManifest
	rings    []*obs.FlightRing[FlightEntry] // per node, index == node ID
	events   *obs.FlightRing[TimedEvent]    // fleet control events, fleet-wide

	pending    []pendingIncident
	incidents  []*Incident
	justSealed []*Incident // sealed this step, for post-unlock callbacks
	incNext    []int       // per-node trigger cooldown bound
	seq        int
	dropped    int

	evScratch []TimedEvent // seal-time snapshot scratch
}

// newForensics builds the recorder for an armed cluster whose bundles
// carry manifest's configuration context.
func newForensics(cfg ForensicsConfig, manifest IncidentManifest) *forensics {
	return &forensics{
		cfg:      cfg,
		manifest: manifest,
		// Control events are rare next to node-periods; a window of
		// recent events several times the flight window deep is enough
		// to cover any bundle's scope.
		events: obs.NewFlightRing[TimedEvent](4 * (cfg.WindowPeriods + cfg.TailPeriods)),
	}
}

// ringCap is each node ring's capacity: the pre-trigger window plus the
// tail, so tail recording never evicts the window it is annotating.
func (f *forensics) ringCap() int { return f.cfg.WindowPeriods + f.cfg.TailPeriods }

// addNode grows the per-node state alongside Cluster.appendNode.
func (f *forensics) addNode() {
	f.rings = append(f.rings, obs.NewFlightRing[FlightEntry](f.ringCap()))
	f.incNext = append(f.incNext, 0)
}

// trigger registers an incident trigger at period p, honouring the
// per-node cooldown and the retention bound.
func (f *forensics) trigger(p, node int, kind, detail string) {
	if node < 0 || node >= len(f.incNext) || p < f.incNext[node] {
		return
	}
	if len(f.pending)+len(f.incidents) >= f.cfg.MaxIncidents {
		f.dropped++
		return
	}
	f.incNext[node] = p + f.cfg.CooldownPeriods
	f.pending = append(f.pending, pendingIncident{
		trigger: kind, node: node, period: p, detail: detail,
		sealAt: p + f.cfg.TailPeriods,
	})
}

// noteEvents records the period's fleet control events.
func (f *forensics) noteEvents(p int, events []FleetEvent) {
	for i := range events {
		f.events.Push(TimedEvent{Period: p, FleetEvent: events[i]})
	}
}

// seal closes every pending incident due at period p (or all of them
// when force is set — the end-of-run flush) and returns how many were
// sealed. Sealed bundles are appended to incidents and justSealed.
func (f *forensics) seal(p int, force bool) int {
	sealed := 0
	kept := f.pending[:0]
	for i := range f.pending {
		pd := &f.pending[i]
		if !force && p < pd.sealAt {
			kept = append(kept, *pd)
			continue
		}
		inc := &Incident{Manifest: f.manifest}
		inc.Manifest.Seq = f.seq
		inc.Manifest.Trigger = pd.trigger
		inc.Manifest.Node = pd.node
		inc.Manifest.Period = pd.period
		inc.Manifest.Detail = pd.detail
		f.seq++
		inc.Flight = f.rings[pd.node].Snapshot(nil)
		from, to := pd.period, p
		if len(inc.Flight) > 0 {
			from = inc.Flight[0].Period
			to = inc.Flight[len(inc.Flight)-1].Period
		}
		inc.Manifest.WindowFrom, inc.Manifest.WindowTo = from, to
		f.evScratch = f.events.Snapshot(f.evScratch[:0])
		for i := range f.evScratch {
			if te := &f.evScratch[i]; te.Period >= from && te.Period <= to {
				inc.Events = append(inc.Events, *te)
			}
		}
		f.incidents = append(f.incidents, inc)
		f.justSealed = append(f.justSealed, inc)
		sealed++
	}
	f.pending = kept
	return sealed
}
