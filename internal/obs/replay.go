package obs

import (
	"fmt"

	"dicer/internal/cache"
	"dicer/internal/core"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// Replay re-drives a fresh DICER controller from a recorded v1 trace and
// verifies decision-for-decision equivalence: for every period, the
// replayed controller — fed exactly the counter readings the trace
// recorded — must reproduce the recorded decision events, state machine
// position and intended HP allocation. For fault-free traces the
// installed masks are verified too (under actuation faults the recorded
// masks lag the controller's intent by construction, so only the
// decisions are compared — they are a pure function of the recorded
// inputs either way).
//
// This is the replay guarantee that turns every captured trace into a
// regression test: the controller's decisions depend only on the
// per-period observables (HP IPC, HP bandwidth, total bandwidth) and its
// own configuration, both of which the trace carries.

// ReplayResult summarises a verified replay.
type ReplayResult struct {
	Periods       int  // records replayed
	Decisions     int  // decision events compared
	MasksVerified bool // installed masks were also compared (fault-free trace)
}

// ReplayError reports the first divergence between trace and replay.
type ReplayError struct {
	Period int
	Field  string // "state" | "hp_ways" | "decisions" | "hp_mask" | "be_mask"
	Got    string // replayed value
	Want   string // recorded value
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("obs: replay diverged at period %d: %s = %s, trace recorded %s",
		e.Period, e.Field, e.Got, e.Want)
}

// replaySystem is the minimal substrate a replayed controller needs:
// mask storage with CAT legality checks and the way count from the
// header. Counters are never read during replay (inputs come from the
// trace), so Counters returns an empty snapshot.
type replaySystem struct {
	ways  int
	masks [4]uint64
}

func (s *replaySystem) NumWays() int { return s.ways }
func (s *replaySystem) NumClos() int { return len(s.masks) }
func (s *replaySystem) SetCBM(clos int, mask uint64) error {
	if clos < 0 || clos >= len(s.masks) {
		return fmt.Errorf("obs: replay CLOS %d out of range", clos)
	}
	if err := cache.CheckMask(mask, s.ways); err != nil {
		return err
	}
	s.masks[clos] = mask
	return nil
}
func (s *replaySystem) CBM(clos int) uint64 {
	if clos < 0 || clos >= len(s.masks) {
		return 0
	}
	return s.masks[clos]
}
func (s *replaySystem) SetMBACap(int, float64) error { return fmt.Errorf("obs: replay has no MBA") }
func (s *replaySystem) LinkCapacityGbps() float64    { return 0 }
func (s *replaySystem) Counters() sim.Snapshot       { return sim.Snapshot{} }

var _ resctrl.System = (*replaySystem)(nil)

// Replay verifies h and recs as described above. It returns the summary
// and the first divergence as a *ReplayError (or a plain error for
// structural problems: a schema other than v1, no controller config, bad
// way count, ...).
func Replay(h Header, recs []Record) (ReplayResult, error) {
	var res ReplayResult
	if h.Schema != Schema {
		// A v2 trace records per-group decisions but not the plan's
		// membership, so its controller cannot be rebuilt.
		return res, fmt.Errorf("obs: replay supports %s traces only, this trace is %s", Schema, h.Schema)
	}
	if h.Controller == nil {
		return res, fmt.Errorf("obs: trace has no controller config (policy %q); only DICER traces replay", h.Policy)
	}
	if h.NumWays < 2 {
		return res, fmt.Errorf("obs: trace header way count %d too small", h.NumWays)
	}
	ctl, err := core.New(*h.Controller)
	if err != nil {
		return res, fmt.Errorf("obs: trace controller config: %w", err)
	}
	sys := &replaySystem{ways: h.NumWays}

	var events []string
	ctl.Trace = func(e core.Event) { events = append(events, string(e.Kind)) }
	if err := ctl.Setup(sys); err != nil {
		return res, fmt.Errorf("obs: replay setup: %w", err)
	}
	res.MasksVerified = h.FaultFree()

	for i := range recs {
		rec := &recs[i]
		events = events[:0]
		p := synthPeriod(rec)
		// The only error Observe can produce here is a failed schemata
		// write, which the legal-by-construction replay system never
		// rejects; treat one as a structural failure.
		if err := ctl.Observe(sys, p); err != nil {
			return res, fmt.Errorf("obs: replay observe period %d: %w", rec.Period, err)
		}
		if err := compare(rec, ctl, sys, events, res.MasksVerified); err != nil {
			return res, err
		}
		res.Periods++
		res.Decisions += len(events)
	}
	return res, nil
}

// synthPeriod rebuilds the observables the controller consumed from one
// record. The controller reads only the HP-class mean IPC, the HP
// group's bandwidth and the total bandwidth, so one core per class and
// one group per class reproduce its view exactly.
func synthPeriod(rec *Record) resctrl.Period {
	return resctrl.Period{
		Seconds: 1,
		Cores: []resctrl.PeriodCore{
			{Core: 0, Clos: policy.HPClos, IPC: rec.HPIPC},
			{Core: 1, Clos: policy.BEClos, IPC: rec.BEMeanIPC},
		},
		Groups: []resctrl.PeriodGroup{
			{Clos: policy.HPClos, BandwidthGbps: rec.HPBWGbps, OccupancyBytes: rec.HPOccBytes},
			{Clos: policy.BEClos, BandwidthGbps: rec.TotalGbps - rec.HPBWGbps},
		},
		TotalGbps: rec.TotalGbps,
	}
}

// compare checks one period's replayed outcome against the record.
func compare(rec *Record, ctl *core.Controller, sys *replaySystem, events []string, masks bool) error {
	if got := ctl.State(); got != rec.State {
		return &ReplayError{rec.Period, "state", got, rec.State}
	}
	if got := ctl.HPWays(); got != rec.HPWays {
		return &ReplayError{rec.Period, "hp_ways",
			fmt.Sprintf("%d", got), fmt.Sprintf("%d", rec.HPWays)}
	}
	if !equalStrings(events, rec.Decisions) {
		return &ReplayError{rec.Period, "decisions",
			fmt.Sprintf("%v", events), fmt.Sprintf("%v", rec.Decisions)}
	}
	if masks {
		if got := sys.CBM(policy.HPClos); got != rec.HPMask {
			return &ReplayError{rec.Period, "hp_mask",
				fmt.Sprintf("%#x", got), fmt.Sprintf("%#x", rec.HPMask)}
		}
		if got := sys.CBM(policy.BEClos); got != rec.BEMask {
			return &ReplayError{rec.Period, "be_mask",
				fmt.Sprintf("%#x", got), fmt.Sprintf("%#x", rec.BEMask)}
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
