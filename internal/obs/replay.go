package obs

import (
	"fmt"
	"slices"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// Replay re-drives a fresh DICER controller from a recorded trace and
// verifies decision-for-decision equivalence: started from the header's
// plan, fed exactly the readings each record carries and given each
// recorded re-plan as the re-cluster schedule gives it, the controller
// must reproduce every group's decisions, state and intended ways, and
// the HP total. Fault-free traces verify the installed masks too (under
// actuation faults they lag the intent by construction).
//
// This turns every captured trace into a regression test: each group's
// decisions depend only on its IPC and bandwidth, the total bandwidth,
// the configuration and the plan, all of which the trace carries.

// ReplayResult summarises a verified replay.
type ReplayResult struct {
	Periods       int  // records replayed
	Groups        int  // most HP CLOS groups in any period
	Replans       int  // recorded re-plans installed
	Decisions     int  // decision events compared
	MasksVerified bool // installed masks were also compared (fault-free trace)
}

// ReplayError reports the first divergence between trace and replay.
type ReplayError struct {
	Period int
	Group  int    // HP CLOS group, -1 for the record's own fields
	Field  string // "groups" | "hp_ways" | "be_mask"; a group's "state" | "ways" | "decisions" | "mask"
	Got    string // replayed value
	Want   string // recorded value
}

func (e *ReplayError) Error() string {
	where := fmt.Sprintf("period %d", e.Period)
	if e.Group >= 0 {
		where += fmt.Sprintf(", group %d", e.Group)
	}
	return fmt.Sprintf("obs: replay diverged at %s: %s = %s, trace recorded %s",
		where, e.Field, e.Got, e.Want)
}

// maxReplayClos bounds a header's CLOS budget (real CAT has about 16).
const maxReplayClos = 64

// replaySystem is the minimal substrate a replayed controller needs:
// mask storage with CAT legality checks and the way count from the
// header. Counters are never read during replay (inputs come from the
// trace), so Counters returns an empty snapshot.
type replaySystem struct {
	ways  int
	masks []uint64
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
// structural problems: no controller config or plan, bad way count or
// CLOS budget, ...).
func Replay(h Header, recs []Record) (ReplayResult, error) {
	var res ReplayResult
	if h.Controller == nil {
		return res, fmt.Errorf("obs: trace has no controller config (policy %q); only DICER traces replay", h.Policy)
	}
	if h.NumWays < 2 {
		return res, fmt.Errorf("obs: trace header way count %d too small", h.NumWays)
	}
	if h.CLOSBudget < 2 || h.CLOSBudget > maxReplayClos {
		return res, fmt.Errorf("obs: trace header CLOS budget %d outside [2, %d]", h.CLOSBudget, maxReplayClos)
	}
	sys := &replaySystem{ways: h.NumWays, masks: make([]uint64, h.CLOSBudget)}
	ctl, err := core.Resume(*h.Controller, h.CLOSBudget, clusterPlan(h.Plan), sys)
	if err != nil {
		return res, fmt.Errorf("obs: replay setup: %w", err)
	}
	events := make([][]string, ctl.BEClos())
	ctl.Trace = func(e core.Event) { events[e.Group] = append(events[e.Group], string(e.Kind)) }
	res.MasksVerified = h.FaultFree()

	for i := range recs {
		rec := &recs[i]
		for gi := range events {
			events[gi] = events[gi][:0]
		}
		p := synthPeriod(rec, ctl.BEClos())
		// The replay system rejects only masks no controller could have
		// installed: a structural failure.
		if err := ctl.Observe(sys, p); err != nil {
			return res, fmt.Errorf("obs: replay observe period %d: %w", rec.Period, err)
		}
		if rec.Plan != nil {
			if err := ctl.Recluster(clusterPlan(rec.Plan), p); err != nil {
				return res, fmt.Errorf("obs: replay re-plan period %d: %w", rec.Period, err)
			}
			res.Replans++
		}
		if err := compare(rec, ctl, sys, events, res.MasksVerified); err != nil {
			return res, err
		}
		res.Periods++
		res.Groups = max(res.Groups, len(rec.Groups))
		for gi := range rec.Groups {
			res.Decisions += len(events[gi])
		}
	}
	return res, nil
}

// clusterPlan is a recorded plan in the planner's terms.
func clusterPlan(groups []PlanGroup) cluster.Plan {
	plan := cluster.Plan{Groups: make([]cluster.Group, len(groups))}
	for gi, g := range groups {
		plan.Groups[gi] = cluster.Group{Apps: g.Apps, Ways: g.Ways}
	}
	return plan
}

// synthPeriod rebuilds the observables the controller consumed from one
// record: one core and one monitoring group per recorded group, whose
// CLOS mean IPC and bandwidth are all a group reads. A group that a
// shrinking re-plan dropped reads zero; the re-plan discards whatever
// it decided.
func synthPeriod(rec *Record, beClos int) resctrl.Period {
	p := resctrl.Period{Seconds: 1, TotalGbps: rec.TotalGbps}
	for gi, g := range rec.Groups {
		p.Cores = append(p.Cores, resctrl.PeriodCore{Core: gi, Clos: gi, IPC: g.IPC})
		p.Groups = append(p.Groups, resctrl.PeriodGroup{Clos: gi, BandwidthGbps: g.BWGbps})
	}
	p.Cores = append(p.Cores, resctrl.PeriodCore{Core: len(rec.Groups), Clos: beClos, IPC: rec.BEMeanIPC})
	p.Groups = append(p.Groups, resctrl.PeriodGroup{Clos: beClos, BandwidthGbps: rec.TotalGbps - rec.HPBWGbps})
	return p
}

// compare checks one period's replayed outcome against the record.
func compare(rec *Record, ctl *core.Controller, sys *replaySystem, events [][]string, masks bool) error {
	if got := ctl.NumGroups(); got != len(rec.Groups) {
		return &ReplayError{rec.Period, -1, "groups", fmt.Sprint(got), fmt.Sprint(len(rec.Groups))}
	}
	if got := ctl.HPWays(); got != rec.HPWays {
		return &ReplayError{rec.Period, -1, "hp_ways", fmt.Sprint(got), fmt.Sprint(rec.HPWays)}
	}
	for gi := range rec.Groups {
		g := &rec.Groups[gi]
		if got := ctl.GroupState(gi); got != g.State {
			return &ReplayError{rec.Period, gi, "state", got, g.State}
		}
		if got := ctl.GroupWays(gi); got != g.Ways {
			return &ReplayError{rec.Period, gi, "ways", fmt.Sprint(got), fmt.Sprint(g.Ways)}
		}
		if !slices.Equal(events[gi], g.Decisions) {
			return &ReplayError{rec.Period, gi, "decisions", fmt.Sprint(events[gi]), fmt.Sprint(g.Decisions)}
		}
		if got := sys.CBM(gi); masks && got != g.Mask {
			return &ReplayError{rec.Period, gi, "mask", fmt.Sprintf("%#x", got), fmt.Sprintf("%#x", g.Mask)}
		}
	}
	if got := sys.CBM(ctl.BEClos()); masks && got != rec.BEMask {
		return &ReplayError{rec.Period, -1, "be_mask", fmt.Sprintf("%#x", got), fmt.Sprintf("%#x", rec.BEMask)}
	}
	return nil
}
