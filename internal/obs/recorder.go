package obs

import (
	"errors"
	"math/bits"

	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Recorder assembles one Record per monitoring period and hands it to a
// Sink. A record follows the controller's shape: one group record per HP
// CLOS group (one on the two-CLOS split) and HP totals over them all.
// The Recorder owns all its scratch — the Record and one GroupRecord and
// decision buffer per possible HP group — so a period costs zero heap
// allocations regardless of the sink (a re-cluster allocates the plan
// it records): the harnesses wire it unconditionally and pay nothing
// when the sink is NopSink.
//
// Wiring order: NewRecorder, then AttachController / AttachChaos as the
// run's substrate dictates, the policy's Setup, optionally Start with
// the workload half of the trace header, then EndPeriod once per
// monitoring period after the policy observed it.
type Recorder struct {
	sink      Sink
	ctl       *core.Controller
	cs        *chaos.System
	threshold float64 // saturation threshold; 0 disables the verdict

	prevFaults chaos.Stats
	timeSec    float64

	rec       Record
	groups    []GroupRecord // one per possible HP group; nil without a controller
	gdec      [][maxDecisions]string
	replanned bool // a re-cluster installed a plan this period
}

// NewRecorder creates a Recorder emitting to sink (NopSink if nil).
func NewRecorder(sink Sink) *Recorder {
	if sink == nil {
		sink = NopSink{}
	}
	return &Recorder{sink: sink}
}

// AttachController subscribes the recorder to a DICER controller's
// decision stream (chained after any existing subscriber), adopts its
// saturation threshold for the per-period verdict, and sizes the group
// scratch for every HP CLOS id the controller may use.
func (r *Recorder) AttachController(ctl *core.Controller) {
	if ctl == nil {
		return
	}
	r.ctl = ctl
	cfg := ctl.Config()
	r.threshold = cfg.BWThresholdGbps
	if cfg.DisableSaturationHandling {
		r.threshold = 0
	}
	r.groups = make([]GroupRecord, ctl.BEClos())
	r.gdec = make([][maxDecisions]string, len(r.groups))
	ctl.ChainTrace(r.onEvent)
}

// AttachChaos points the recorder at the run's fault-injection layer so
// records carry the faults injected in their period.
func (r *Recorder) AttachChaos(cs *chaos.System) {
	if cs == nil {
		return
	}
	r.cs = cs
	r.prevFaults = cs.Stats()
}

// Start forwards the trace header to the sink when it wants one. The
// controller half of the header comes from the attached controller:
// Start stamps the schema, the controller's configuration, CLOS budget
// and grouping policy, and the plan it runs — so call it after Setup.
func (r *Recorder) Start(h Header) error {
	h.Schema = Schema
	if r.ctl != nil {
		cfg := r.ctl.Config()
		h.Controller = &cfg
		h.CLOSBudget = r.ctl.BEClos() + 1
		h.Grouping = r.ctl.Grouping()
		h.Plan = planOf(r.ctl)
	}
	if hs, ok := r.sink.(HeaderSink); ok {
		return hs.Start(h)
	}
	return nil
}

// planOf returns the controller's current plan: every group's member
// apps and budget. The two-CLOS split has no planning view; its one HP
// app is app 0.
func planOf(ctl *core.Controller) []PlanGroup {
	plan := make([]PlanGroup, ctl.NumGroups())
	for gi := range plan {
		plan[gi].Ways = ctl.GroupBudget(gi)
	}
	for app := 0; app < max(1, len(ctl.Specs())); app++ {
		gi := ctl.GroupOf(app)
		plan[gi].Apps = append(plan[gi].Apps, app)
	}
	return plan
}

// onEvent folds one controller decision into its group's record: the
// decision joins the group's list and its cause tag becomes the group's
// provenance.
func (r *Recorder) onEvent(e core.Event) {
	if e.Group < 0 || e.Group >= len(r.groups) {
		return
	}
	if e.Kind == core.EventRecluster {
		r.replanned = true
	}
	g := &r.groups[e.Group]
	if n := len(g.Decisions); n < maxDecisions {
		r.gdec[e.Group][n] = string(e.Kind)
		g.Decisions = r.gdec[e.Group][:n+1]
	}
	g.Cause = e.Cause
}

// EndPeriod assembles and emits the record for one monitoring period.
// p is the period's counter reading, sys the substrate after the
// policy's actuation, observeErr the raw error returned by the policy's
// Observe (nil when the period was clean; injected-fault and invariant
// errors are classified into the record, anything else lands in Err).
func (r *Recorder) EndPeriod(period int, p resctrl.Period, sys resctrl.System, observeErr error) {
	rec := &r.rec
	rec.Period = period
	r.timeSec += p.Seconds
	rec.TimeSec = r.timeSec

	// Inputs: HP totals span the HP groups on CLOS 0..k-1.
	k, beClos := 1, policy.BEClos
	if r.ctl != nil {
		k, beClos = r.ctl.NumGroups(), r.ctl.BEClos()
	}
	var hpSum float64
	hpN := 0
	for _, c := range p.Cores {
		if c.Clos < k {
			hpSum += c.IPC
			hpN++
		}
	}
	rec.HPIPC = 0
	if hpN > 0 {
		rec.HPIPC = hpSum / float64(hpN)
	}
	rec.BEMeanIPC = p.ClosMeanIPC(beClos)
	rec.HPBWGbps = 0
	var hpMask uint64
	for gi := 0; gi < k; gi++ {
		rec.HPBWGbps += p.GroupBW(gi)
		hpMask |= sys.CBM(gi)
	}
	rec.HPOccBytes = 0
	for _, g := range p.Groups {
		if g.Clos < k {
			rec.HPOccBytes += g.OccupancyBytes
		}
	}
	rec.TotalGbps = p.TotalGbps
	rec.Saturated = r.threshold > 0 && p.TotalGbps > r.threshold

	// Outputs. Decisions were folded into the groups by onEvent during
	// Observe; the controller's intent can run ahead of the installed
	// masks under actuation faults.
	rec.HPMask = hpMask
	rec.BEMask = sys.CBM(beClos)
	rec.HPWays = bits.OnesCount64(hpMask)
	if r.ctl != nil {
		rec.HPWays = r.ctl.HPWays()
		rec.Groups = r.groups[:k]
		for gi := range rec.Groups {
			g := &rec.Groups[gi]
			g.Group = gi
			g.IPC = p.ClosMeanIPC(gi)
			g.BWGbps = p.GroupBW(gi)
			g.Ways = r.ctl.GroupWays(gi)
			g.Mask = sys.CBM(gi)
			g.State = r.ctl.GroupState(gi)
		}
		if r.replanned {
			rec.Plan = planOf(r.ctl)
		}
	}

	// Substrate annotations.
	if r.cs != nil {
		cur := r.cs.Stats()
		rec.Faults = cur.Sub(r.prevFaults)
		r.prevFaults = cur
	} else {
		rec.Faults = chaos.Stats{}
	}
	rec.Tolerated = false
	rec.Guard = ""
	rec.Err = ""
	if observeErr != nil {
		r.classify(observeErr)
	}

	r.sink.Emit(rec)
	for gi := range r.groups {
		r.groups[gi].Decisions = nil
		r.groups[gi].Cause = ""
	}
	rec.Plan = nil
	r.replanned = false
}

// classify sorts an Observe error into the record's annotation fields
// and overrides every group's cause with the substrate-level
// provenance. Kept off the happy path so a clean period stays
// allocation-free.
func (r *Recorder) classify(err error) {
	cause := ""
	if errors.Is(err, chaos.ErrInjected) {
		r.rec.Tolerated = true
		cause = "chaos-masked"
	}
	var ie *invariant.Error
	if errors.As(err, &ie) {
		r.rec.Guard = ie.Error()
		cause = "guard-veto"
	} else if !r.rec.Tolerated {
		r.rec.Err = err.Error()
	}
	if cause != "" {
		for gi := range r.rec.Groups {
			r.rec.Groups[gi].Cause = cause
		}
	}
}
