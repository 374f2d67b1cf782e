// Package fleet consolidates the single-node DICER simulation into a
// multi-node cluster: N simulated servers, each pinned to one or more
// high-priority applications under a node-local partitioning policy,
// absorbing an open-loop stream of best-effort jobs through admission
// control and a pluggable placement scheduler. On top of the static
// cluster sit two control loops: an SLO-burn-driven migration engine
// that evicts BE jobs off burning nodes, and a repartition-first
// autoscaler that repacks existing nodes before adding capacity. The
// cluster steps nodes through the sharded work-stealing executor but
// aggregates deterministically, so the same configuration always
// produces a byte-identical cluster trace at any worker count.
package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"dicer/internal/app"
	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/par"
	"dicer/internal/sim"
	"dicer/internal/slo"
)

// Config describes a fleet run.
type Config struct {
	// Nodes is the initial cluster size. Default 4.
	Nodes int
	// Machine is the per-node platform. Zero value means machine.Default.
	Machine machine.Machine
	// HPs names the high-priority applications, assigned to nodes
	// round-robin. Default: a cache-sensitive mix.
	HPs []string
	// HPsPerNode consolidates several HP applications onto each node
	// (cores 0..HPsPerNode-1) under the multi-HP DICER controller.
	// Default 1: the legacy single-HP node, byte-identical traces.
	HPsPerNode int
	// Policy is the node-local policy on every node: "UM", "CT" or
	// "DICER" (default).
	Policy string
	// DICER configures the controller when Policy is "DICER". Zero value
	// means core.DefaultConfig.
	DICER core.Config
	// SLO is each HP's target fraction of alone performance. Default 0.9.
	SLO float64

	PeriodSec      float64 // default 1.0
	StepsPerPeriod int     // default 4
	HorizonPeriods int     // default 120

	// Arrivals drives the BE job generator.
	Arrivals ArrivalConfig
	// Scheduler picks the placement scheduler by name ("random",
	// "least-loaded", "headroom" — the default); SchedSeed feeds the
	// random scheduler.
	Scheduler string
	SchedSeed int64
	// QueueCap bounds the admission queue; arrivals beyond it are
	// rejected. Default 32.
	QueueCap int

	// Workers bounds concurrent node stepping. Default GOMAXPROCS.
	Workers int

	// Migration enables SLO-burn-driven BE migration: each node's
	// heartbeat stream feeds a multi-window burn-rate alerter, and a
	// firing alert evicts the node's heaviest BE jobs back through the
	// bounded-retry placement path.
	Migration MigrationConfig
	// Autoscale enables the repartition-first autoscaler: sustained
	// admission-queue pressure first repacks existing nodes (cancelling
	// drains, re-clustering multi-HP cache plans) and only then adds
	// nodes; sustained idleness drains and retires them.
	Autoscale AutoscaleConfig
	// Forensics arms the flight recorder: per-node black-box rings of
	// full-resolution entries, snapshotted into deterministic incident
	// bundles when an SLO-burn alert fires or a node is frozen/lost.
	Forensics ForensicsConfig

	// NodeChaos schedules node freeze/loss events.
	NodeChaos chaos.NodeSchedule

	// Trace, when set, receives the JSONL cluster trace.
	Trace io.Writer

	// AloneIPC, when set, resolves alone-run reference IPCs by profile
	// name, once per node HP and admitted job, instead of the cluster's
	// own table (the experiment suite shares its one table this way).
	AloneIPC func(name string) (float64, error)

	// OnPeriod, when set, observes each period's record (and the queue
	// as of the period's end) after the record is written; serve mode
	// feeds its exporter and endpoint snapshots from here. The callback
	// runs outside the cluster's step lock on a private copy of the
	// record (the cluster pools its record storage), so it may call back
	// into the cluster and retain what it is given.
	OnPeriod func(rec *ClusterRecord, queue []QueueEntry)

	// OnIncident, when set, observes each incident bundle as it is
	// sealed (the trigger period plus Forensics.TailPeriods later, or at
	// Finish for triggers the horizon cut short). Like OnPeriod it runs
	// outside the step lock; incidents are immutable once sealed, so the
	// callback may retain the pointer.
	OnIncident func(inc *Incident)
}

// The cluster's fixed parameters. Multi-HP nodes run under the 16
// CLOS ids of real CAT (NodeConfig's default budget).
const (
	// maxPlaceAttempts bounds how many times a job may be placed
	// (initial placement plus re-placements after node loss) before it
	// is dropped.
	maxPlaceAttempts = 5
	// orphanBackoff delays a re-queued orphan's next placement attempt
	// by attempts × this many periods.
	orphanBackoff = 2
	// aloneHorizonPeriods is the horizon of locally computed alone-run
	// reference IPCs, independent of the cluster horizon.
	aloneHorizonPeriods = 120
)

// The default fleet size and admission-queue bound, for callers that
// need them before a fleet exists (a chaos schedule, a description).
const (
	DefaultNodes    = 4
	DefaultQueueCap = 32
)

// withDefaults returns cfg with unset fields filled.
func (cfg Config) withDefaults() Config {
	if cfg.Nodes == 0 {
		cfg.Nodes = DefaultNodes
	}
	if cfg.Machine.Cores == 0 {
		cfg.Machine = machine.Default()
	}
	if len(cfg.HPs) == 0 {
		cfg.HPs = []string{"omnetpp1", "sphinx1", "mcf1", "Xalan1"}
	}
	if cfg.Policy == "" {
		cfg.Policy = "DICER"
	}
	if cfg.HPsPerNode == 0 {
		cfg.HPsPerNode = 1
	}
	if cfg.DICER == (core.Config{}) {
		cfg.DICER = core.DefaultConfig()
	}
	if cfg.SLO == 0 {
		cfg.SLO = 0.9
	}
	if cfg.PeriodSec == 0 {
		cfg.PeriodSec = 1.0
	}
	if cfg.StepsPerPeriod == 0 {
		cfg.StepsPerPeriod = 4
	}
	if cfg.HorizonPeriods == 0 {
		cfg.HorizonPeriods = 120
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "headroom"
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.Autoscale.withDefaults(cfg.Nodes)
	cfg.Forensics.withDefaults()
	return cfg
}

// Result summarises a fleet run.
type Result struct {
	Scheduler string `json:"scheduler"`
	Policy    string `json:"policy"`
	Nodes     int    `json:"nodes"`
	Periods   int    `json:"periods"`

	Arrivals   int `json:"arrivals"`
	Admitted   int `json:"admitted"`
	Rejected   int `json:"rejected"`
	Placements int `json:"placements"`
	Requeued   int `json:"requeued"`
	Dropped    int `json:"dropped"`
	Done       int `json:"done"`
	QueuedEnd  int `json:"queued_at_end"`
	RunningEnd int `json:"running_at_end"`

	Freezes int `json:"freezes"`
	Losses  int `json:"losses"`

	// Control-loop totals, omitted by static fleets: Migrations counts
	// eviction decisions (Evicted the jobs they moved), Repacks the
	// repartition-first actions, ScaleUps/ScaleDowns the capacity
	// decisions (NodesAdded/NodesRetired the nodes they moved), and
	// NodesEnd the working fleet size at the horizon.
	Evicted      int `json:"evicted,omitempty"`
	Migrations   int `json:"migrations,omitempty"`
	Repacks      int `json:"repacks,omitempty"`
	ScaleUps     int `json:"scale_ups,omitempty"`
	ScaleDowns   int `json:"scale_downs,omitempty"`
	NodesAdded   int `json:"nodes_added,omitempty"`
	NodesRetired int `json:"nodes_retired,omitempty"`
	NodesEnd     int `json:"nodes_at_end,omitempty"`

	// Incidents counts sealed forensic bundles (IncidentsDropped the
	// triggers discarded at the MaxIncidents bound); zero and omitted
	// unless the flight recorder is armed.
	Incidents        int `json:"incidents,omitempty"`
	IncidentsDropped int `json:"incidents_dropped,omitempty"`

	// FleetEFU is the per-period fleet EFU averaged over the horizon.
	FleetEFU float64 `json:"fleet_efu"`
	// SLOViolationPeriods counts (node, period) cells where a live HP
	// missed its SLO.
	SLOViolationPeriods int `json:"slo_violation_periods"`
	// RejectRate is Rejected / Arrivals (0 when no arrivals).
	RejectRate float64 `json:"reject_rate"`
	// MeanQueueWait / P95QueueWait summarise periods from arrival to
	// first placement over jobs that were placed at least once.
	MeanQueueWait float64 `json:"mean_queue_wait_periods"`
	P95QueueWait  float64 `json:"p95_queue_wait_periods"`
}

// stepOut is one node's per-period stepping result, written into an
// index-addressed slot so aggregation order never depends on worker
// scheduling.
type stepOut struct {
	hb   Heartbeat
	live bool
}

// stepAcc accumulates one worker's integer counters across the nodes it
// stepped. Integer sums are commutative, so merging the accumulators in
// worker order is deterministic no matter which worker stole which
// node; floats are NOT merged this way — they reduce in node-index
// order from the heartbeat slots, because float addition does not
// associate. Padded to a cache line against false sharing.
type stepAcc struct {
	done    int
	running int
	_       [48]byte
}

// Cluster is a running fleet. Build with New, drive with Run (or Step in
// a loop followed by Finish).
type Cluster struct {
	cfg      Config
	nodes    []*Node
	sched    Scheduler
	arrivals []Arrival
	nextArr  int
	queue    []*Job

	alone *sim.AloneTable // nil when cfg.AloneIPC is set

	period   int
	lastGbps []float64 // per node, most recent live heartbeat
	waits    []float64
	efuSum   float64
	res      Result
	lw       *obs.LineWriter

	// Migration state (alerters is nil unless migration or forensics is
	// armed): per-node burn-rate alerters, placement quarantine bounds,
	// and eviction cooldown bounds. Every alerter runs alertRule,
	// slo.DefaultAlertConfig built once, so they share its windows.
	alertRule slo.AlertConfig
	alerters  []*slo.Alerter
	quarUntil []int
	migNext   []int

	// fr is the flight recorder (nil unless Forensics.Enabled).
	fr *forensics

	// Autoscaler state: consecutive pressure/idle periods, the decision
	// cooldown bound, whether the repartition-first rung already ran for
	// the current pressure episode, and how many nodes have retired.
	pressStreak  int
	idleStreak   int
	coolUntil    int
	repackTried  bool
	retiredCount int

	// Pooled per-period scratch: the record (heartbeats + events), the
	// stepping slots, the per-worker accumulators, the placement views
	// and the survivor queue. Steady-state stepping allocates nothing.
	rec    ClusterRecord
	outs   []stepOut
	accs   []stepAcc
	views  []NodeView
	kept   []*Job
	stepP  int
	stepFn func(w, i int) error

	stepMu    sync.Mutex
	finished  bool
	finishErr error
}

// New validates the configuration, generates the arrival trace, resolves
// alone-run references and builds the nodes (HP attached, policy set
// up). The trace header is written immediately.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Machine.Cores < 2 {
		return nil, fmt.Errorf("fleet: machine needs >=2 cores for HP + BEs")
	}
	if cfg.HPsPerNode < 1 {
		return nil, fmt.Errorf("fleet: HPsPerNode %d < 1", cfg.HPsPerNode)
	}
	if cfg.Machine.Cores <= cfg.HPsPerNode {
		return nil, fmt.Errorf("fleet: machine has %d cores for %d HPs + BEs", cfg.Machine.Cores, cfg.HPsPerNode)
	}
	if err := cfg.NodeChaos.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Autoscale.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Forensics.validate(); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(cfg.Scheduler, cfg.SchedSeed)
	if err != nil {
		return nil, err
	}
	arrivals, err := GenArrivals(cfg.Arrivals, cfg.HorizonPeriods)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:      cfg,
		sched:    sched,
		arrivals: arrivals,
		accs:     make([]stepAcc, cfg.Workers),
	}
	if cfg.AloneIPC == nil {
		c.alone = sim.NewAloneTable(cfg.Machine, aloneHorizonPeriods*cfg.StepsPerPeriod,
			cfg.PeriodSec/float64(cfg.StepsPerPeriod), false)
	}
	c.stepFn = c.stepNode
	c.alertRule = slo.DefaultAlertConfig()
	// Headers and bundles record the HPs per node only on a multi-HP
	// fleet, so single-HP ones keep their bytes.
	hpsPerNode := 0
	if cfg.HPsPerNode > 1 {
		hpsPerNode = cfg.HPsPerNode
	}
	if cfg.Forensics.Enabled {
		c.fr = newForensics(cfg.Forensics, IncidentManifest{
			Schema:     IncidentSchema,
			Policy:     cfg.Policy,
			Scheduler:  cfg.Scheduler,
			Nodes:      cfg.Nodes,
			HPsPerNode: hpsPerNode,
			SLO:        cfg.SLO,
			LinkGbps:   cfg.Machine.Link.CapacityGBps,
			PeriodSec:  cfg.PeriodSec,
			NodeChaos:  cfg.NodeChaos.Name,
			Alert:      c.alertRule,
		})
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := c.buildNode(i)
		if err != nil {
			return nil, err
		}
		c.appendNode(n)
	}

	c.res = Result{
		Scheduler: cfg.Scheduler,
		Policy:    cfg.Policy,
		Nodes:     cfg.Nodes,
		Arrivals:  len(arrivals),
	}

	if cfg.Trace != nil {
		c.lw = obs.NewLineWriter(cfg.Trace)
		c.lw.WriteLine(c.header(hpsPerNode))
		if err := c.lw.Err(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildNode constructs node id: it hosts HPsPerNode consecutive entries
// of the round-robin HP stream (at HPsPerNode 1, exactly the legacy
// one-name-per-node assignment). Autoscaled nodes extend the same
// stream, so node identity is a pure function of its index.
func (c *Cluster) buildNode(id int) (*Node, error) {
	cfg := c.cfg
	hps := make([]app.Profile, cfg.HPsPerNode)
	alones := make([]float64, cfg.HPsPerNode)
	for j := range hps {
		hpName := cfg.HPs[(id*cfg.HPsPerNode+j)%len(cfg.HPs)]
		hp, err := app.ByName(hpName)
		if err != nil {
			return nil, err
		}
		hpAlone, err := c.aloneIPC(hp)
		if err != nil {
			return nil, err
		}
		hps[j], alones[j] = hp, hpAlone
	}
	return NewNode(NodeConfig{
		ID:             id,
		Machine:        cfg.Machine,
		HPs:            hps,
		HPAloneIPCs:    alones,
		Policy:         cfg.Policy,
		DICER:          cfg.DICER,
		SLO:            cfg.SLO,
		PeriodSec:      cfg.PeriodSec,
		StepsPerPeriod: cfg.StepsPerPeriod,
	})
}

// appendNode registers a node and grows every per-node array in step;
// node index always equals node ID.
func (c *Cluster) appendNode(n *Node) {
	c.nodes = append(c.nodes, n)
	c.lastGbps = append(c.lastGbps, 0)
	c.quarUntil = append(c.quarUntil, 0)
	c.migNext = append(c.migNext, 0)
	if c.cfg.Migration.Enabled || c.cfg.Forensics.Enabled {
		c.alerters = append(c.alerters, slo.NewAlerter(c.alertRule))
	}
	if c.fr != nil {
		c.fr.addNode()
		n.armFlightTap()
	}
}

// header builds the trace header.
func (c *Cluster) header(hpsPerNode int) TraceHeader {
	arr := c.cfg.Arrivals
	arr.defaults()
	h := TraceHeader{
		Schema:         TraceSchema,
		Nodes:          c.cfg.Nodes,
		CoresPerNode:   c.cfg.Machine.Cores,
		HPsPerNode:     hpsPerNode,
		Policy:         c.cfg.Policy,
		Scheduler:      c.cfg.Scheduler,
		SchedSeed:      c.cfg.SchedSeed,
		PeriodSec:      c.cfg.PeriodSec,
		StepsPerPeriod: c.cfg.StepsPerPeriod,
		HorizonPeriods: c.cfg.HorizonPeriods,
		SLO:            c.cfg.SLO,
		LinkGbps:       c.cfg.Machine.Link.CapacityGBps,
		QueueCap:       c.cfg.QueueCap,
		HPs:            c.cfg.HPs,
		Arrivals:       arr,
		NodeChaos:      c.cfg.NodeChaos.Name,
	}
	if c.cfg.Autoscale.Enabled {
		a := c.cfg.Autoscale
		h.Autoscale = &a
	}
	if c.cfg.Migration.Enabled {
		m := c.cfg.Migration
		h.Migration = &m
	}
	if c.cfg.Forensics.Enabled {
		f := c.cfg.Forensics
		h.Forensics = &f
	}
	return h
}

// Incidents returns the sealed incident bundles so far (nil when the
// flight recorder is not armed). Bundles are immutable; the slice is a
// copy.
func (c *Cluster) Incidents() []*Incident {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	if c.fr == nil {
		return nil
	}
	return append([]*Incident(nil), c.fr.incidents...)
}

// aloneIPC resolves prof's full-LLC alone-run IPC through cfg.AloneIPC
// or the cluster's table.
func (c *Cluster) aloneIPC(prof app.Profile) (float64, error) {
	if c.cfg.AloneIPC != nil {
		return c.cfg.AloneIPC(prof.Name)
	}
	return c.alone.IPC(prof, c.cfg.Machine.LLCWays)
}

// Done reports whether the horizon has been reached.
func (c *Cluster) Done() bool {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	return c.period >= c.cfg.HorizonPeriods
}

// clone deep-copies a record out of the cluster's pooled storage.
func (r *ClusterRecord) clone() ClusterRecord {
	out := *r
	out.Nodes = append([]Heartbeat(nil), r.Nodes...)
	if len(r.Events) > 0 {
		out.Events = append([]FleetEvent(nil), r.Events...)
	} else {
		out.Events = nil
	}
	return out
}

// QueueEntry is one waiting job, as exposed on /queue.
type QueueEntry struct {
	Job           int    `json:"job"`
	App           string `json:"app"`
	ArrivalPeriod int    `json:"arrival_period"`
	Attempts      int    `json:"attempts,omitempty"`
	NotBefore     int    `json:"not_before,omitempty"`
}

// queueSnapshotLocked returns the current admission queue in order.
func (c *Cluster) queueSnapshotLocked() []QueueEntry {
	out := make([]QueueEntry, 0, len(c.queue))
	for _, j := range c.queue {
		out = append(out, QueueEntry{
			Job:           j.ID,
			App:           j.Profile.Name,
			ArrivalPeriod: j.ArrivalPeriod,
			Attempts:      j.Attempts,
			NotBefore:     j.NotBefore,
		})
	}
	return out
}

// Step advances the cluster by one monitoring period: control decisions
// (migration, autoscaling) from the previous period's signals, node
// chaos events (freezes, losses with orphan re-queueing), arrivals and
// admission, a placement pass, batched node stepping, then aggregation
// and trace emission.
func (c *Cluster) Step() error {
	c.stepMu.Lock()
	rec, err := c.stepLocked()
	var cbRec *ClusterRecord
	var q []QueueEntry
	cb := c.cfg.OnPeriod
	if err == nil && cb != nil {
		// The callback's copy is taken under the lock: the pooled record
		// is overwritten by the next step. (Pointer-typed so the copy is
		// only materialised — and only escapes — when a callback is set.)
		r := rec.clone()
		cbRec = &r
		q = c.queueSnapshotLocked()
	}
	var sealed []*Incident
	onInc := c.cfg.OnIncident
	if err == nil && onInc != nil && c.fr != nil && len(c.fr.justSealed) > 0 {
		sealed = append(sealed, c.fr.justSealed...)
	}
	c.stepMu.Unlock()
	if err == nil && cb != nil {
		cb(cbRec, q)
	}
	for _, inc := range sealed {
		onInc(inc)
	}
	return err
}

// stepNode steps node i on worker w for period c.stepP: the executor
// callback. Each kind of node writes its heartbeat into the node's
// index-addressed slot; integer counters go to the worker's
// accumulator. A method value bound once at construction, so the
// per-period executor call captures nothing.
func (c *Cluster) stepNode(w, i int) error {
	n := c.nodes[i]
	o := &c.outs[i]
	switch {
	case n.retired:
		*o = stepOut{hb: Heartbeat{Node: n.ID(), Retired: true}}
	case n.lost:
		*o = stepOut{hb: Heartbeat{Node: n.ID(), Lost: true}}
	case n.Frozen(c.stepP):
		*o = stepOut{hb: Heartbeat{Node: n.ID(), Frozen: true, Draining: n.draining, BECount: n.beCount}}
		c.accs[w].running += n.beCount
	default:
		hb, done, err := n.StepPeriod(c.stepP)
		if err != nil {
			return err
		}
		hb.Draining = n.draining
		*o = stepOut{hb: hb, live: true}
		c.accs[w].done += done
		c.accs[w].running += n.beCount
	}
	return nil
}

// stepLocked is Step's body; stepMu is held.
func (c *Cluster) stepLocked() (*ClusterRecord, error) {
	if c.period >= c.cfg.HorizonPeriods {
		return nil, fmt.Errorf("fleet: stepped past horizon %d", c.cfg.HorizonPeriods)
	}
	p := c.period
	rec := &c.rec
	*rec = ClusterRecord{Period: p, Nodes: rec.Nodes[:0], Events: rec.Events[:0]}
	if c.fr != nil {
		c.fr.justSealed = c.fr.justSealed[:0]
	}

	// Control pass, on the previous period's signals: migration first
	// (its evictions add queue pressure the autoscaler should see), then
	// the autoscaler.
	if c.cfg.Migration.Enabled {
		c.migrateLocked(p, rec)
	}
	if c.cfg.Autoscale.Enabled {
		if err := c.autoscaleLocked(p, rec); err != nil {
			return nil, err
		}
	}

	// Node chaos: freezes pause a node (jobs hold their cores and their
	// remaining service time); loss is permanent and orphans the node's
	// jobs back into the queue with backoff, up to the attempt bound.
	for _, ev := range c.cfg.NodeChaos.At(p) {
		if ev.Node >= len(c.nodes) {
			continue
		}
		n := c.nodes[ev.Node]
		if n.lost || n.retired {
			continue
		}
		switch ev.Fault {
		case chaos.NodeFreeze:
			n.Freeze(p, ev.Periods)
			rec.Freezes++
			if c.fr != nil {
				c.fr.trigger(p, ev.Node, TriggerNodeFreeze, fmt.Sprintf("periods=%d", ev.Periods))
			}
		case chaos.NodeLoss:
			rec.Losses++
			orphans := n.Lose()
			if c.fr != nil {
				c.fr.trigger(p, ev.Node, TriggerNodeLoss, fmt.Sprintf("orphans=%d", len(orphans)))
			}
			for _, j := range orphans {
				if j.Attempts >= maxPlaceAttempts {
					rec.Dropped++
					c.res.Dropped++
					continue
				}
				j.NotBefore = p + j.Attempts*orphanBackoff
				c.queue = append(c.queue, j)
				rec.Requeued++
				c.res.Requeued++
			}
		}
	}
	c.res.Freezes += rec.Freezes
	c.res.Losses += rec.Losses

	// Arrivals and admission: a full queue rejects.
	for c.nextArr < len(c.arrivals) && c.arrivals[c.nextArr].Period == p {
		a := c.arrivals[c.nextArr]
		c.nextArr++
		rec.Arrivals++
		if len(c.queue) >= c.cfg.QueueCap {
			rec.Rejected++
			c.res.Rejected++
			continue
		}
		prof, err := app.ByName(a.App)
		if err != nil {
			return nil, err
		}
		alone, err := c.aloneIPC(prof)
		if err != nil {
			return nil, err
		}
		c.queue = append(c.queue, &Job{
			ID:               a.Job,
			Profile:          prof,
			AloneIPC:         alone,
			ArrivalPeriod:    a.Period,
			PlacedPeriod:     -1,
			RemainingPeriods: a.DurationPeriods,
			Core:             -1,
		})
		rec.Admitted++
		c.res.Admitted++
	}

	// Quarantined nodes are healthy capacity the migration engine is
	// deliberately not placing onto; count them so backpressure from
	// quarantine is observable in the trace and the exporter.
	if c.cfg.Migration.Enabled {
		for i, n := range c.nodes {
			if !n.lost && !n.retired && p < c.quarUntil[i] {
				rec.Quarantined++
			}
		}
	}

	if err := c.placeLocked(p, rec); err != nil {
		return nil, err
	}

	// Step nodes through the sharded work-stealing executor. Heartbeats
	// land in index-addressed slots; integer counters accumulate
	// per-worker and merge in worker order (commutative), while float
	// aggregates reduce in node-index order below — so the trace is
	// byte-identical at any worker count, and the lowest-index error
	// wins deterministically.
	if cap(c.outs) < len(c.nodes) {
		c.outs = make([]stepOut, len(c.nodes))
	}
	c.outs = c.outs[:len(c.nodes)]
	for w := range c.accs {
		c.accs[w] = stepAcc{}
	}
	c.stepP = p
	if err := par.ExecuteW(len(c.nodes), c.cfg.Workers, c.stepFn); err != nil {
		return nil, err
	}

	normSum := 0.0
	live := 0
	for i := range c.outs {
		o := &c.outs[i]
		rec.Nodes = append(rec.Nodes, o.hb)
		if !o.hb.Lost && !o.hb.Retired {
			live++
		}
		if !o.live {
			continue
		}
		c.lastGbps[i] = o.hb.TotalGbps
		normSum += o.hb.NormSum
		if o.hb.SLOViolated {
			rec.SLOViolations++
			c.res.SLOViolationPeriods++
		}
	}
	// Per-node burn-rate alerters advance serially in ID order, off the
	// heartbeat stream (live nodes only — frozen and lost nodes miss
	// heartbeats, matching the diag monitors). A transition to firing is
	// an incident trigger when the flight recorder is armed.
	if c.alerters != nil {
		for i := range c.outs {
			if !c.outs[i].live {
				continue
			}
			v := 0.0
			if c.outs[i].hb.SLOViolated {
				v = 1
			}
			ev, changed := c.alerters[i].Step(v)
			if changed && ev.Firing && c.fr != nil {
				c.fr.trigger(p, i, TriggerSLOBurn, fmt.Sprintf("burn=%.2f/%.2f", ev.ShortBurn, ev.LongBurn))
			}
		}
	}
	// Flight pass: one entry per non-retired node into its black-box
	// ring — the heartbeat, the controller's decision provenance for the
	// period, the alerter's burn state — then the period's control
	// events, then any due incident seals. All value copies into
	// preallocated rings; steady state allocates nothing.
	if c.fr != nil {
		for i := range c.outs {
			o := &c.outs[i]
			if o.hb.Retired {
				continue
			}
			e := FlightEntry{Period: p, Heartbeat: o.hb}
			c.nodes[i].takeFlight(&e)
			if o.live && c.alerters != nil {
				a := c.alerters[i]
				burns := a.Burns()
				e.BurnShort, e.BurnLong = burns[0], burns[len(burns)-1]
				e.AlertFiring = a.Firing()
			}
			c.fr.rings[i].Push(e)
		}
		c.fr.noteEvents(p, rec.Events)
		rec.Incidents = c.fr.seal(p, false)
	}
	running := 0
	for w := range c.accs {
		rec.Done += c.accs[w].done
		running += c.accs[w].running
	}
	c.res.Done += rec.Done
	rec.QueueLen = len(c.queue)
	rec.Running = running
	if c.cfg.Autoscale.Enabled {
		rec.NodesLive = live
	}
	// Retired capacity leaves the EFU denominator (scaling down must not
	// read as utilisation loss); lost and frozen capacity still counts
	// as zero-earning, as before.
	rec.FleetEFU = normSum / float64((len(c.nodes)-c.retiredCount)*c.cfg.Machine.Cores)
	c.efuSum += rec.FleetEFU

	if c.lw != nil {
		c.lw.WriteLine(rec)
		if err := c.lw.Err(); err != nil {
			return nil, err
		}
	}
	c.period++
	return rec, nil
}

// placeLocked runs period p's placement pass. Candidate views are built
// once into a pooled slice, then updated in place as placements land:
// each placement folds the job into its view, which keeps its position
// when it fills, and the scheduler hears of each fold. The pass is
// sequential (FIFO over the queue) to keep the random scheduler's
// stream deterministic.
func (c *Cluster) placeLocked(p int, rec *ClusterRecord) error {
	c.views = c.views[:0]
	for i, n := range c.nodes {
		if n.lost || n.retired || n.draining || n.Frozen(p) || n.FreeCores() <= 0 || p < c.quarUntil[i] {
			continue
		}
		c.views = append(c.views, n.view(c.lastGbps[i]))
	}
	c.sched.BeginPass(c.views)
	defer c.sched.EndPass()
	kept := c.kept[:0]
	for _, j := range c.queue {
		if j.NotBefore > p {
			kept = append(kept, j)
			continue
		}
		idx, ok := c.sched.Pick(j, c.views)
		if !ok || idx < 0 || idx >= len(c.views) {
			kept = append(kept, j)
			continue
		}
		// Node index equals node ID (appendNode).
		v := &c.views[idx]
		if err := c.nodes[v.ID].Place(j, p); err != nil {
			return err
		}
		j.Attempts++
		v.fold(c.cfg.Machine, &j.Profile)
		rec.Placed++
		c.res.Placements++
		if j.Attempts == 1 {
			c.waits = append(c.waits, float64(p-j.ArrivalPeriod))
		}
		c.sched.Folded(idx)
	}
	c.kept = c.queue[:0] // swap backing arrays; both pools persist
	c.queue = kept
	return nil
}

// fold adds a job placed on the view's node to the view: its predicted
// bandwidth, taken against the pre-placement population (exactly what a
// fresh view would see), its footprint capped at the BE partition, one
// more BE and one less free core.
func (v *NodeView) fold(m machine.Machine, p *app.Profile) {
	pred := PredictJobGbps(m, *p, v.BEWays, v.BECount)
	beBytes := m.WaysBytes(v.BEWays)
	fp := p.MaxFootprint()
	if fp > beBytes {
		fp = beBytes
	}
	v.BECount++
	v.FreeCores--
	v.BEFootprint += fp
	v.TotalGbps += pred
}

// Finish flushes the trace and returns the run summary. Pending
// incident triggers whose tail the horizon cut short are sealed with
// the evidence recorded so far. Idempotent.
func (c *Cluster) Finish() (Result, error) {
	c.stepMu.Lock()
	if c.finished {
		res, err := c.res, c.finishErr
		c.stepMu.Unlock()
		return res, err
	}
	c.finished = true
	var sealed []*Incident
	if c.fr != nil {
		c.fr.justSealed = c.fr.justSealed[:0]
		c.fr.seal(c.period, true)
		c.res.Incidents = len(c.fr.incidents)
		c.res.IncidentsDropped = c.fr.dropped
		if c.cfg.OnIncident != nil {
			sealed = append(sealed, c.fr.justSealed...)
		}
	}
	c.res.Periods = c.period
	c.res.QueuedEnd = len(c.queue)
	for _, n := range c.nodes {
		if !n.lost {
			c.res.RunningEnd += n.BECount()
		}
	}
	if c.cfg.Autoscale.Enabled {
		for _, n := range c.nodes {
			if !n.lost && !n.retired {
				c.res.NodesEnd++
			}
		}
	}
	if c.period > 0 {
		c.res.FleetEFU = c.efuSum / float64(c.period)
	}
	if c.res.Arrivals > 0 {
		c.res.RejectRate = float64(c.res.Rejected) / float64(c.res.Arrivals)
	}
	if len(c.waits) > 0 {
		c.res.MeanQueueWait = metrics.Mean(c.waits)
		c.res.P95QueueWait = metrics.NewCDF(c.waits).Quantile(0.95)
	}
	if c.lw != nil {
		c.finishErr = c.lw.Flush()
	}
	res, err := c.res, c.finishErr
	c.stepMu.Unlock()
	for _, inc := range sealed {
		c.cfg.OnIncident(inc)
	}
	return res, err
}

// Run steps the cluster to its horizon and returns the summary.
func (c *Cluster) Run() (Result, error) {
	for !c.Done() {
		if err := c.Step(); err != nil {
			return Result{}, err
		}
	}
	return c.Finish()
}
