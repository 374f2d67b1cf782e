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
// Sink. It owns all its scratch — the Record, its fixed decision buffer
// and, for grouped controllers, one GroupRecord and decision buffer per
// possible HP group — so a period costs zero heap allocations regardless
// of the sink: the harnesses wire it unconditionally and pay nothing when
// the sink is NopSink.
//
// The record layout is decided once, when the controller attaches: a
// controller with a grouping policy (core.NewMulti) gets dicer-trace/v2
// records, with per-group decisions and HP totals spanning every group;
// the two-CLOS controller (core.New), and runs without a controller,
// get dicer-trace/v1 records.
//
// Wiring order: NewRecorder, then AttachController / AttachChaos as the
// run's substrate dictates, optionally Start with the workload half of
// the trace header, then EndPeriod once per monitoring period after the
// policy observed it.
type Recorder struct {
	sink      Sink
	ctl       *core.Controller
	cs        *chaos.System
	threshold float64 // saturation threshold; 0 disables the verdict

	prevFaults chaos.Stats
	timeSec    float64

	rec Record
	dec [maxDecisions]string

	// v2 scratch, one slot per possible HP group; nil for v1 records.
	groups []GroupRecord
	gdec   [][maxDecisions]string
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
// saturation threshold for the per-period verdict, and picks the record
// layout: v2 when the controller has a grouping policy, v1 otherwise.
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
	if ctl.Grouping() != "" {
		r.groups = make([]GroupRecord, ctl.BEClos())
		r.gdec = make([][maxDecisions]string, len(r.groups))
	}
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
// layout half of the header comes from the attached controller, as the
// records' layout does: Start stamps the schema, the controller's
// configuration and, for a grouped controller, its CLOS budget and
// grouping policy.
func (r *Recorder) Start(h Header) error {
	h.Schema = Schema
	if r.ctl != nil {
		cfg := r.ctl.Config()
		h.Controller = &cfg
		if r.groups != nil {
			h.Schema = SchemaV2
			h.CLOSBudget = r.ctl.BEClos() + 1
			h.Grouping = r.ctl.Grouping()
		}
	}
	if hs, ok := r.sink.(HeaderSink); ok {
		return hs.Start(h)
	}
	return nil
}

// onEvent folds one controller decision into the period's record. In v1
// the last decision's cause tag becomes the period's provenance (classify
// may override it with guard-veto / chaos-masked); in v2 each group keeps
// its own decisions and cause.
func (r *Recorder) onEvent(e core.Event) {
	if r.groups == nil {
		if n := len(r.rec.Decisions); n < maxDecisions {
			r.dec[n] = string(e.Kind)
			r.rec.Decisions = r.dec[:n+1]
		}
		r.rec.Cause = e.Cause
		return
	}
	if e.Group < 0 || e.Group >= len(r.groups) {
		return
	}
	if e.Kind == core.EventRecluster {
		r.rec.Reclustered = true
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

	// Outputs. Decisions were folded in by onEvent during Observe. A v1
	// record carries the controller's state and intended HP ways (under
	// actuation faults the installed mask can lag them); a v2 record
	// carries both per group instead.
	rec.HPMask = hpMask
	rec.BEMask = sys.CBM(beClos)
	rec.State = ""
	rec.HPWays = bits.OnesCount64(hpMask)
	if r.groups != nil {
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
	} else if r.ctl != nil {
		rec.State = r.ctl.State()
		rec.HPWays = r.ctl.HPWays()
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
	rec.Decisions = r.dec[:0]
	rec.Cause = ""
	for gi := range r.groups {
		r.groups[gi].Decisions = nil
		r.groups[gi].Cause = ""
	}
	rec.Groups = nil
	rec.Reclustered = false
}

// classify sorts an Observe error into the record's annotation fields
// and overrides the decision cause with the substrate-level provenance.
// Kept off the happy path so a clean period stays allocation-free.
func (r *Recorder) classify(err error) {
	if errors.Is(err, chaos.ErrInjected) {
		r.rec.Tolerated = true
		r.rec.Cause = "chaos-masked"
	}
	var ie *invariant.Error
	if errors.As(err, &ie) {
		r.rec.Guard = ie.Error()
		r.rec.Cause = "guard-veto"
	} else if !r.rec.Tolerated {
		r.rec.Err = err.Error()
	}
}
