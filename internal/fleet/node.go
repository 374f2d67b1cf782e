package fleet

import (
	"fmt"
	"math/bits"

	"dicer/internal/app"
	"dicer/internal/box"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/policy"
)

// Job is one admitted best-effort job: a catalog application that
// occupies one core of one node for a bounded number of stepped
// monitoring periods. Jobs move through the fleet as arrival → queue →
// placement → completion, possibly cycling back through the queue when
// their node is lost.
type Job struct {
	ID      int
	Profile app.Profile
	// AloneIPC is the profile's full-LLC alone-run reference, resolved
	// at admission; per-period normalised IPCs (and thus fleet EFU) are
	// computed against it.
	AloneIPC float64
	// ArrivalPeriod is when the job entered the system; PlacedPeriod is
	// when it first landed on a node (-1 while queued).
	ArrivalPeriod int
	PlacedPeriod  int
	// RemainingPeriods counts down the service time over stepped periods
	// (a frozen node does not step, so its jobs pause).
	RemainingPeriods int
	// Core is the node core the job runs on (-1 while queued).
	Core int
	// Attempts counts placements (first placement plus re-placements
	// after node loss); NotBefore gates backoff-delayed retries.
	Attempts  int
	NotBefore int
}

// NodeConfig describes one fleet node: a simulated server running one or
// more HP applications under a node-local consolidation policy.
type NodeConfig struct {
	ID      int
	Machine machine.Machine
	// HPs are the node's high-priority applications, attached to cores
	// 0..len(HPs)-1. One HP runs the node policy on the two-CLOS HP/BE
	// split; more than one runs the DICER controller grouped by an
	// LFOC-style clustered plan.
	HPs []app.Profile
	// HPAloneIPCs are the HPs' full-LLC alone-run IPCs (the SLO and
	// normalisation references), index-matched to HPs.
	HPAloneIPCs []float64
	// CLOSBudget is the CLOS-id budget for multi-HP nodes (HP groups plus
	// the BE partition). Ignored with a single HP, which always uses the
	// two-CLOS split.
	CLOSBudget int
	// Policy is the node-local policy: "UM", "CT" or "DICER". Multi-HP
	// nodes require DICER (the grouped controller).
	Policy string
	// DICER configures the controller when Policy is "DICER".
	DICER core.Config
	// SLO is every HP's target fraction of alone performance.
	SLO            float64
	PeriodSec      float64
	StepsPerPeriod int
}

// Heartbeat is one node's per-period status report, the unit the cluster
// aggregates into its trace records and Prometheus metrics. A frozen
// node misses heartbeats: the cluster synthesises one with Frozen set
// and no readings, so the record stream stays dense and the scheduler's
// health view is explicit in the trace.
type Heartbeat struct {
	Node   int  `json:"node"`
	Frozen bool `json:"frozen,omitempty"`
	Lost   bool `json:"lost,omitempty"`
	// Draining marks a node the autoscaler is emptying (no new
	// placements; running jobs finish); Retired marks one removed after
	// draining empty. Static fleets never set either.
	Draining bool `json:"draining,omitempty"`
	Retired  bool `json:"retired,omitempty"`

	// HPIPC / HPNorm describe the node's worst-normalised HP (the only
	// one, on single-HP nodes). HPGroups is the number of HP CLOS groups
	// the controller runs (omitted on single-HP nodes).
	HPIPC     float64 `json:"hp_ipc,omitempty"`
	HPNorm    float64 `json:"hp_norm,omitempty"`
	HPGroups  int     `json:"hp_groups,omitempty"`
	BECount   int     `json:"be_count"`
	HPWays    int     `json:"hp_ways,omitempty"`
	HPBWGbps  float64 `json:"hp_bw_gbps,omitempty"`
	TotalGbps float64 `json:"total_bw_gbps,omitempty"`
	// Saturated reports the link past its queueing knee this period.
	Saturated bool `json:"saturated,omitempty"`
	// SLOViolated reports the HP below SLO × alone this period.
	SLOViolated bool `json:"slo_violated,omitempty"`
	// NormSum is the sum of normalised IPCs of every running process
	// (HP + BE jobs); the cluster divides by fleet capacity for EFU.
	NormSum float64 `json:"norm_sum,omitempty"`
}

// Node is one simulated server of the cluster: a box plus the BE jobs
// placed on it.
type Node struct {
	cfg NodeConfig
	box box.Box

	// hpCount HPs occupy cores 0..hpCount-1; BE jobs share beClos, the
	// last CLOS id of the node's simulator.
	hpCount int
	beClos  int

	// jobs indexes running jobs by core (nil = free); cores
	// hpCount..Cores-1 hold BE jobs.
	jobs    []*Job
	beCount int

	frozenUntil int // exclusive period bound; frozen while period < this
	lost        bool

	// draining/retired are autoscaler lifecycle states: a draining node
	// accepts no placements and retires once empty; a retired node no
	// longer steps and its capacity leaves the fleet EFU denominator.
	draining bool
	retired  bool

	// viewFP is view's per-group footprint scratch on multi-HP nodes,
	// pooled so the placement pass allocates nothing per period.
	viewFP []float64

	// Flight-recorder tap, written by the controller's chained trace
	// hook during Observe (inside the node's own stepping slot, so no
	// synchronisation) and drained serially by the cluster's flight
	// pass. flightState persists across periods — it is the state
	// machine's position, informative even on periods without decisions
	// — while cause/count/recluster reset every drain.
	flightState  string
	flightCause  string
	flightCount  int
	flightReclus bool
}

// NewNode builds a node, attaches its HPs on cores 0..len(HPs)-1 and
// runs the policy's Setup. A single HP runs any of UM/CT/DICER on the
// two-CLOS HP/BE split; several HPs run the box's grouped DICER under
// the node's CLOS budget: HPs attach to CLOS 0, the clustered plan moves
// their cores into CLOS groups, and BE jobs share the last CLOS id.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.SLO <= 0 || cfg.SLO > 1 {
		return nil, fmt.Errorf("fleet: node %d SLO %g outside (0,1]", cfg.ID, cfg.SLO)
	}
	k := len(cfg.HPs)
	if k == 0 {
		return nil, fmt.Errorf("fleet: node %d needs at least one HP", cfg.ID)
	}
	if len(cfg.HPAloneIPCs) != k {
		return nil, fmt.Errorf("fleet: node %d has %d HPs but %d alone references", cfg.ID, k, len(cfg.HPAloneIPCs))
	}
	for i, v := range cfg.HPAloneIPCs {
		if v <= 0 {
			return nil, fmt.Errorf("fleet: node %d HP %d needs a positive alone-IPC reference", cfg.ID, i)
		}
	}
	if cfg.Machine.Cores <= k {
		return nil, fmt.Errorf("fleet: node %d has %d cores for %d HPs + BEs", cfg.ID, cfg.Machine.Cores, k)
	}
	dicerPolicy := cfg.Policy == "DICER" || cfg.Policy == "dicer"
	nclos := 2
	if k > 1 {
		if !dicerPolicy {
			return nil, fmt.Errorf("fleet: node %d runs %d HPs, which requires the DICER policy (got %q)", cfg.ID, k, cfg.Policy)
		}
		if nclos = cfg.CLOSBudget; nclos == 0 {
			nclos = 16
		}
		if nclos < 2 {
			return nil, fmt.Errorf("fleet: node %d CLOS budget %d < 2", cfg.ID, nclos)
		}
	}
	var pol policy.Policy // nil: the box's own DICER
	if !dicerPolicy {
		var ok bool
		if pol, ok = policy.ByName(cfg.Policy); !ok {
			return nil, fmt.Errorf("fleet: unknown node policy %q (have UM, CT, DICER)", cfg.Policy)
		}
	}
	hps := make([]box.HP, k)
	for i, hp := range cfg.HPs {
		hps[i] = box.HP{Profile: hp, SLO: cfg.SLO}
	}
	n := &Node{
		cfg:     cfg,
		hpCount: k,
		beClos:  nclos - 1,
		jobs:    make([]*Job, cfg.Machine.Cores),
	}
	b := &n.box
	if err := b.Init(cfg.Machine); err != nil {
		return nil, err
	}
	if err := b.Build(box.Config{
		HPs:            hps,
		PeriodSec:      cfg.PeriodSec,
		StepsPerPeriod: cfg.StepsPerPeriod,
		CLOSBudget:     nclos,
		DICER:          cfg.DICER,
	}, pol); err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	if k > 1 {
		n.viewFP = make([]float64, k)
	}
	return n, nil
}

// ID returns the node index.
func (n *Node) ID() int { return n.cfg.ID }

// FreeCores returns the number of cores available for BE jobs.
func (n *Node) FreeCores() int { return n.cfg.Machine.Cores - n.hpCount - n.beCount }

// BECount returns the number of running BE jobs.
func (n *Node) BECount() int { return n.beCount }

// Frozen reports whether the node is frozen at the given period.
func (n *Node) Frozen(period int) bool { return !n.lost && period < n.frozenUntil }

// Freeze suspends the node for the given number of periods starting at
// period: it will not step and will miss heartbeats until it thaws.
func (n *Node) Freeze(period, periods int) {
	if until := period + periods; until > n.frozenUntil {
		n.frozenUntil = until
	}
}

// Lose kills the node permanently and returns its orphaned jobs for
// re-placement.
func (n *Node) Lose() []*Job {
	n.lost = true
	var orphans []*Job
	for c, j := range n.jobs {
		if j == nil {
			continue
		}
		_ = n.box.Runner.Detach(c)
		j.Core = -1
		n.jobs[c] = nil
		orphans = append(orphans, j)
	}
	n.beCount = 0
	return orphans
}

// Place attaches a BE job to the lowest free core. The meter is
// rebaselined so the next period's readings start from the new
// population's counters.
func (n *Node) Place(j *Job, period int) error {
	if n.lost {
		return fmt.Errorf("fleet: placing job %d on lost node %d", j.ID, n.cfg.ID)
	}
	if n.Frozen(period) {
		return fmt.Errorf("fleet: placing job %d on frozen node %d", j.ID, n.cfg.ID)
	}
	for c := n.hpCount; c < len(n.jobs); c++ {
		if n.jobs[c] == nil {
			if err := n.box.Runner.Attach(c, n.beClos, j.Profile); err != nil {
				return err
			}
			n.jobs[c] = j
			n.beCount++
			j.Core = c
			if j.PlacedPeriod < 0 {
				j.PlacedPeriod = period
			}
			n.box.Meter.Rebaseline()
			return nil
		}
	}
	return fmt.Errorf("fleet: node %d has no free core for job %d", n.cfg.ID, j.ID)
}

// StepPeriod advances the node by one monitoring period — the box's
// period: step the simulator, sample the meter, refresh a grouped
// controller's specs and let the policy observe — then accounts job
// progress. Completed jobs are detached in place and only their count
// comes back with the heartbeat, since the cluster only aggregates
// counts. Not called for frozen, lost or retired nodes.
func (n *Node) StepPeriod(period int) (Heartbeat, int, error) {
	p, err := n.box.Period(period)
	if err != nil {
		return Heartbeat{Node: n.cfg.ID}, 0, fmt.Errorf("fleet: node %d policy %s: %w", n.cfg.ID, n.box.Policy.Name(), err)
	}

	hb := Heartbeat{Node: n.cfg.ID, BECount: n.beCount}
	// The headline HP fields report the worst-normalised HP (on a
	// single-HP node, the only one).
	worst := 0
	for i := 0; i < n.hpCount; i++ {
		ipc := p.CoreIPC(i)
		norm := metrics.NormIPC(ipc, n.cfg.HPAloneIPCs[i])
		hb.NormSum += norm
		if i == 0 || norm < hb.HPNorm {
			worst, hb.HPNorm = i, norm
		}
		if !metrics.SLOAchieved(ipc, n.cfg.HPAloneIPCs[i], n.cfg.SLO) {
			hb.SLOViolated = true
		}
	}
	hb.HPIPC = p.CoreIPC(worst)
	if ctl := n.box.Grouped; ctl != nil {
		hb.HPGroups = ctl.NumGroups()
		for gi := 0; gi < ctl.NumGroups(); gi++ {
			hb.HPWays += ctl.GroupWays(gi)
			hb.HPBWGbps += p.GroupBW(gi)
		}
	} else {
		hb.HPWays = bits.OnesCount64(n.box.Emu.CBM(policy.HPClos))
		hb.HPBWGbps = p.GroupBW(policy.HPClos)
	}
	hb.TotalGbps = p.TotalGbps
	link := n.cfg.Machine.Link
	hb.Saturated = p.TotalGbps > link.Knee*link.CapacityGBps

	// Job accounting reads only the sampled period p, so detaching a
	// finished job inside the walk observes the same readings the old
	// collect-then-detach pass did.
	done := 0
	for c := n.hpCount; c < len(n.jobs); c++ {
		j := n.jobs[c]
		if j == nil {
			continue
		}
		hb.NormSum += metrics.NormIPC(p.CoreIPC(c), j.AloneIPC)
		j.RemainingPeriods--
		if j.RemainingPeriods <= 0 {
			_ = n.box.Runner.Detach(c)
			n.jobs[c] = nil
			j.Core = -1
			n.beCount--
			done++
		}
	}
	if done > 0 {
		n.box.Meter.Rebaseline()
	}
	return hb, done, nil
}

// evict detaches the BE job on the given core for re-placement
// elsewhere: the migration engine's primitive. The meter rebaselines so
// the next period's readings start from the reduced population.
func (n *Node) evict(core int) *Job {
	j := n.jobs[core]
	_ = n.box.Runner.Detach(core)
	n.jobs[core] = nil
	j.Core = -1
	n.beCount--
	n.box.Meter.Rebaseline()
	return j
}

// beWays returns the BE partition's current width in ways.
func (n *Node) beWays() int { return bits.OnesCount64(n.box.Emu.CBM(n.beClos)) }

// Repack re-clusters a multi-HP node's cache plan on demand (the
// autoscaler's repartition-first action) against the HP apps' current
// specs, which the box refreshes every period, reporting whether the
// plan changed. Single-HP nodes have nothing to repack.
func (n *Node) Repack() (bool, error) {
	if ctl := n.box.Grouped; ctl != nil {
		return ctl.Replan()
	}
	return false, nil
}

// armFlightTap chains the flight recorder's provenance tap onto the
// node controller's decision stream: each event overwrites the tap with
// the latest state and cause (one closure per node, allocated once at
// arm time; the per-event cost is two string-header stores). Policies
// without a controller (UM, CT) record no provenance.
func (n *Node) armFlightTap() {
	if ctl := core.ControllerOf(n.box.Policy); ctl != nil {
		ctl.ChainTrace(func(e core.Event) {
			n.flightState = e.State
			n.flightCause = e.Cause
			n.flightCount++
			if e.Kind == core.EventRecluster {
				n.flightReclus = true
			}
		})
	}
}

// takeFlight drains the provenance tap into a flight entry and resets
// the per-period fields.
func (n *Node) takeFlight(e *FlightEntry) {
	e.State = n.flightState
	e.Cause = n.flightCause
	e.Decisions = n.flightCount
	e.Reclustered = n.flightReclus
	n.flightCause, n.flightCount, n.flightReclus = "", 0, false
}

// view builds the scheduler's snapshot of this node. lastTotalGbps is
// the node's most recent heartbeat bandwidth. The cluster builds each
// candidate's view once per period and folds same-period placements
// into it in place, so the snapshot must only depend on node state and
// the last heartbeat.
func (n *Node) view(lastTotalGbps float64) NodeView {
	m := n.cfg.Machine
	beWays := n.beWays()
	v := NodeView{
		ID:        n.cfg.ID,
		FreeCores: n.FreeCores(),
		BECount:   n.beCount,
		BEWays:    beWays,
		TotalGbps: lastTotalGbps,
		Machine:   m,
	}
	beBytes := m.WaysBytes(beWays)
	for c := n.hpCount; c < len(n.jobs); c++ {
		if j := n.jobs[c]; j != nil {
			fp := j.Profile.MaxFootprint()
			if fp > beBytes {
				fp = beBytes
			}
			v.BEFootprint += fp
		}
	}
	// Multi-HP nodes expose their worst HP group's LLC overcommit: the
	// clustered plan may pool incompatible HPs, and a node whose HP
	// groups are already thrashing is a poor host for more cache
	// pressure. Single-HP nodes report zero — their controller regulates
	// the one HP directly.
	if ctl := n.box.Grouped; ctl != nil {
		k := ctl.NumGroups()
		fp := n.viewFP[:k]
		for i := range fp {
			fp[i] = 0
		}
		for i, hp := range n.cfg.HPs {
			fp[ctl.GroupOf(i)] += hp.MaxFootprint()
		}
		for gi := 0; gi < k; gi++ {
			bytes := m.WaysBytes(ctl.GroupWays(gi))
			if bytes <= 0 {
				continue
			}
			if over := fp[gi]/bytes - 1; over > v.HPGroupPressure {
				v.HPGroupPressure = over
			}
		}
	}
	return v
}
