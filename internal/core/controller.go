package core

import (
	"fmt"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Grouping selects how a grouped Controller maps HP apps to CLOS groups.
const (
	GroupingClustered = "clustered"     // LFOC-style sensitivity clustering
	GroupingPerApp    = "per-app"       // one CLOS per HP app (naive baseline)
	GroupingSpill     = "per-app-spill" // per-app until the ids run out, overflow shares the last group
	GroupingSingle    = "single"        // all HP apps share one CLOS
)

// MultiConfig configures a grouped controller (NewMulti).
type MultiConfig struct {
	// Group carries the per-group DICER tunables: thresholds, stability
	// band, sample step, and the way floors — MinHPWays per HP group and
	// MinBEWays for the BE partition.
	Group Config

	// WayBytes is the LLC capacity of one way, needed to evaluate miss
	// curves during clustering (resctrl.System exposes only way counts).
	WayBytes float64

	// CLOSBudget is the number of CLOS ids the hardware exposes; the
	// plan uses at most CLOSBudget-1 HP groups plus the BE group, which
	// is pinned to CLOS id CLOSBudget-1. Real CAT: ~16.
	CLOSBudget int

	// Grouping is one of GroupingClustered (default when empty),
	// GroupingPerApp, GroupingSpill, GroupingSingle.
	Grouping string

	// ReclusterEvery re-evaluates the grouping every N periods (0 =
	// grouping fixed at Setup). Re-clustering needs a resctrl.CoreMover
	// substrate; groups whose membership changes restart their state
	// machine from CT's starting point.
	ReclusterEvery int

	// UsePhaseHints honours AppSpec.Hint curves during re-clustering
	// (Com-CAS-style: regroup ahead of the phase change). When false,
	// hints are ignored and re-clustering is reactive only.
	UsePhaseHints bool
}

// Validate reports configuration errors.
func (c MultiConfig) Validate() error {
	if err := c.Group.Validate(); err != nil {
		return err
	}
	if c.WayBytes <= 0 {
		return fmt.Errorf("dicer: multi config needs positive WayBytes, got %g", c.WayBytes)
	}
	if c.CLOSBudget < 2 {
		return fmt.Errorf("dicer: CLOS budget %d < 2", c.CLOSBudget)
	}
	switch c.Grouping {
	case GroupingClustered, GroupingPerApp, GroupingSpill, GroupingSingle:
	default:
		return fmt.Errorf("dicer: unknown grouping %q", c.Grouping)
	}
	if c.ReclusterEvery < 0 {
		return fmt.Errorf("dicer: negative recluster interval %d", c.ReclusterEvery)
	}
	return nil
}

// EventRecluster is emitted once per group when a re-cluster installs a
// new grouping (the group's state machine restarts).
const EventRecluster EventKind = "recluster"

// Controller runs one DICER state machine (group.go) per CLOS group of
// HP applications. It implements policy.Policy: group i is CLOS i, the BE
// partition is pinned to CLOS CLOSBudget-1, and masks are stacked from
// the top of the LLC — contiguous, disjoint, and at one group exactly the
// HPMask/BEMask split.
//
// New builds the paper's single-HP controller: one group on the two-CLOS
// split, with no grouping policy and nothing to plan. NewMulti builds a
// grouped controller for M HP apps under an LFOC-style clustering plan.
type Controller struct {
	cfg MultiConfig

	// Trace, when non-nil, receives one Event per decision.
	Trace func(Event)

	// specs is the planning view, refreshed in place through Specs; nil
	// on the two-CLOS split, which has no plan.
	specs []cluster.AppSpec
	plan  cluster.Plan

	groups     []groupState
	totalWays  int
	period     int
	sys        resctrl.System
	masksDirty bool

	// scratch for re-clustering (allocated once, reused).
	scratchSpecs []cluster.AppSpec

	// one backs groups until a plan needs more than one group, so New
	// plus Setup cost a single allocation.
	one [1]groupState
}

// New creates the single-HP DICER controller of the paper: one group
// over the two-CLOS HP/BE split.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newController(MultiConfig{Group: cfg, CLOSBudget: 2}, nil), nil
}

// MustNew is New with a panic on bad configuration, for tests/examples.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewMulti creates a grouped controller over the given app specs. The
// spec slice is copied; refresh per-phase curves through Specs.
func NewMulti(cfg MultiConfig, specs []cluster.AppSpec) (*Controller, error) {
	if cfg.Grouping == "" {
		cfg.Grouping = GroupingClustered
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("dicer: multi controller needs at least one HP app")
	}
	return newController(cfg, specs), nil
}

// MustNewMulti is NewMulti with a panic on bad configuration.
func MustNewMulti(cfg MultiConfig, specs []cluster.AppSpec) *Controller {
	c, err := NewMulti(cfg, specs)
	if err != nil {
		panic(err)
	}
	return c
}

func newController(cfg MultiConfig, specs []cluster.AppSpec) *Controller {
	c := &Controller{cfg: cfg}
	c.groups = c.one[:]
	if specs != nil {
		c.specs = append([]cluster.AppSpec(nil), specs...)
		c.scratchSpecs = make([]cluster.AppSpec, len(specs))
	}
	return c
}

// Name implements policy.Policy: "DICER" on the two-CLOS split,
// "DICER-<grouping>" for a grouped controller.
func (c *Controller) Name() string {
	if c.cfg.Grouping == "" {
		return "DICER"
	}
	return "DICER-" + c.cfg.Grouping
}

// Config returns the per-group DICER configuration.
func (c *Controller) Config() Config { return c.cfg.Group }

// Grouping returns the grouping policy, or "" on the two-CLOS split.
func (c *Controller) Grouping() string { return c.cfg.Grouping }

// Period returns the number of monitoring periods observed since Setup.
// It increments by exactly one per Observe call — the invariant checker
// (internal/invariant) relies on this to verify monotone bookkeeping.
func (c *Controller) Period() int { return c.period }

// NumGroups returns the number of HP CLOS groups currently enforced.
func (c *Controller) NumGroups() int { return len(c.groups) }

// BEClos returns the CLOS id of the best-effort partition.
func (c *Controller) BEClos() int { return c.cfg.CLOSBudget - 1 }

// GroupWays returns group gi's currently enforced allocation.
func (c *Controller) GroupWays(gi int) int { return c.groups[gi].cur }

// GroupBudget returns the upper bound of group gi's partition window: CT's
// allocation on the two-CLOS split, the plan's ways budget otherwise.
func (c *Controller) GroupBudget(gi int) int { return c.groups[gi].maxWays }

// GroupState returns group gi's state name, for reporting.
func (c *Controller) GroupState(gi int) string { return c.groups[gi].st.String() }

// GroupOf returns the CLOS group of HP app i under the current plan.
func (c *Controller) GroupOf(app int) int { return c.plan.GroupOf(app) }

// HPWays returns the HP ways currently enforced, summed over groups.
func (c *Controller) HPWays() int {
	n := 0
	for gi := range c.groups {
		n += c.groups[gi].cur
	}
	return n
}

// State returns group 0's state name — on the two-CLOS split, the
// controller's.
func (c *Controller) State() string { return c.groups[0].st.String() }

// CTFavoured reports whether group 0 still assumes a CT-Favoured
// workload (no bandwidth saturation observed so far).
func (c *Controller) CTFavoured() bool { return c.groups[0].ctFavoured }

// Specs returns the per-app planning view (current-phase curves and
// optional upcoming-phase hints), nil on the two-CLOS split. It is live:
// refresh it in place before Observe on periods where phases may have
// moved. Refreshing does not replan — the re-cluster schedule and Replan
// decide when plans change.
func (c *Controller) Specs() []cluster.AppSpec { return c.specs }

// Setup implements policy.Policy: install CT's starting point in every
// group (Listing 1's initialisation). A grouped controller first plans
// the grouping and moves every HP core into its group's CLOS; on the
// two-CLOS split every planner would return the one group holding
// NumWays-MinBEWays ways, so that group is installed directly.
func (c *Controller) Setup(sys resctrl.System) error {
	total := sys.NumWays()
	g := &c.cfg.Group
	if total < g.MinHPWays+g.MinBEWays {
		return fmt.Errorf("dicer: %d ways cannot satisfy minimums %d+%d",
			total, g.MinHPWays, g.MinBEWays)
	}
	if sys.NumClos() < c.cfg.CLOSBudget {
		return fmt.Errorf("dicer: system has %d CLOS, config budgets %d", sys.NumClos(), c.cfg.CLOSBudget)
	}
	c.totalWays = total
	c.period = 0
	c.sys = sys
	if c.specs == nil {
		c.groups = c.groups[:1]
		c.groups[0].init(0, g.MinHPWays, total-g.MinBEWays)
		return c.installMasks()
	}
	plan, err := c.planNow(false)
	if err != nil {
		return err
	}
	return c.installPlan(plan)
}

// planNow computes the plan for the current specs. hints controls
// whether AppSpec.Hint curves participate (they never do when the
// config disables phase hints).
func (c *Controller) planNow(hints bool) (cluster.Plan, error) {
	specs := c.specs
	if !hints || !c.cfg.UsePhaseHints {
		specs = c.scratchSpecs
		copy(specs, c.specs)
		for i := range specs {
			specs[i].Hint = nil
		}
	}
	ccfg := cluster.Config{
		TotalWays:    c.totalWays,
		WayBytes:     c.cfg.WayBytes,
		CLOSBudget:   c.cfg.CLOSBudget,
		MinGroupWays: c.cfg.Group.MinHPWays,
		MinBEWays:    c.cfg.Group.MinBEWays,
	}
	switch c.cfg.Grouping {
	case GroupingPerApp:
		return cluster.PerApp(ccfg, specs)
	case GroupingSpill:
		return cluster.PerAppSpill(ccfg, specs)
	case GroupingSingle:
		return cluster.Single(ccfg, specs)
	default:
		return cluster.Assign(ccfg, specs)
	}
}

// installPlan moves cores into their plan groups, restarts every group's
// state machine at its budget, and installs the stacked masks. Plans
// with more than the available HP CLOS ids are rejected by planning, so
// group i maps directly to CLOS i.
func (c *Controller) installPlan(plan cluster.Plan) error {
	k := len(plan.Groups)
	if k > c.BEClos() {
		return fmt.Errorf("dicer: plan has %d groups, budget allows %d", k, c.BEClos())
	}
	if mover, ok := c.sys.(resctrl.CoreMover); ok {
		for gi, g := range plan.Groups {
			for _, appIdx := range g.Apps {
				if err := mover.MoveCore(c.specs[appIdx].Core, gi); err != nil {
					return err
				}
			}
		}
	} else if k != 1 {
		// Without a core mover the caller must have attached every HP
		// app to CLOS 0 already; only the degenerate one-group plan can
		// be honoured.
		return fmt.Errorf("dicer: system cannot move cores between CLOS groups")
	}
	c.plan = plan
	if cap(c.groups) < k {
		c.groups = make([]groupState, k)
	}
	c.groups = c.groups[:k]
	for gi := range c.groups {
		c.groups[gi].init(gi, c.cfg.Group.MinHPWays, plan.Groups[gi].Ways)
	}
	// Idle CLOS ids between the last group and the BE partition get a
	// harmless low-way mask (they hold no cores).
	for clos := k; clos < c.BEClos(); clos++ {
		if err := c.sys.SetCBM(clos, cache.ContiguousMask(0, 1)); err != nil {
			return err
		}
	}
	return c.installMasks()
}

// installMasks lays the groups' current allocations out from the top of
// the LLC and gives the BE partition the low-order remainder. Group
// budgets sum to at most TotalWays-MinBEWays, so BE keeps its floor.
func (c *Controller) installMasks() error {
	top := c.totalWays
	for gi := range c.groups {
		w := c.groups[gi].cur
		if err := c.sys.SetCBM(gi, cache.ContiguousMask(top-w, w)); err != nil {
			return err
		}
		top -= w
	}
	return c.sys.SetCBM(c.BEClos(), cache.ContiguousMask(0, top))
}

// Observe implements policy.Policy: one invocation per monitoring
// period, Listing 1's dicer_driver loop body. Every group runs its own
// Listing 1–3 step against its CLOS's mean IPC and bandwidth; mask
// changes from all groups are installed in one stacked relayout; the
// re-cluster schedule then gets a chance to regroup (reactively, or
// ahead of hinted phase changes).
func (c *Controller) Observe(sys resctrl.System, p resctrl.Period) error {
	c.period++
	c.sys = sys
	saturated := p.TotalGbps > c.cfg.Group.BWThresholdGbps && !c.cfg.Group.DisableSaturationHandling

	c.masksDirty = false
	for gi := range c.groups {
		c.groups[gi].observe(c, p.ClosMeanIPC(gi), p.GroupBW(gi), p.TotalGbps, saturated)
	}
	if c.masksDirty {
		if err := c.installMasks(); err != nil {
			return err
		}
	}
	if c.cfg.ReclusterEvery > 0 && c.period%c.cfg.ReclusterEvery == 0 {
		return c.maybeRecluster(p)
	}
	return nil
}

// maybeRecluster replans against the freshest specs and installs the new
// grouping when membership changed. Group state restarts on change —
// the partition landscape under a new grouping invalidates old optima.
func (c *Controller) maybeRecluster(p resctrl.Period) error {
	changed, err := c.Replan()
	if err != nil || !changed || c.Trace == nil {
		return err
	}
	for gi := range c.groups {
		c.emit(&c.groups[gi], EventRecluster, p.ClosMeanIPC(gi), p.TotalGbps)
	}
	return nil
}

// Replan recomputes the clustering against the freshest specs and
// installs it when membership or budgets changed, reporting whether a
// new plan went in. This is the fleet autoscaler's repartition-first
// hook: unlike the periodic re-cluster schedule it runs on demand,
// outside Observe, so an external controller can force a repack of the
// node's cache groups before resorting to added capacity. Group state
// restarts on change, exactly as a scheduled re-cluster would. On the
// two-CLOS split there is nothing to replan.
func (c *Controller) Replan() (bool, error) {
	if c.specs == nil {
		return false, nil
	}
	plan, err := c.planNow(true)
	if err != nil {
		return false, err
	}
	if samePlan(c.plan, plan) {
		return false, nil
	}
	if err := c.installPlan(plan); err != nil {
		return false, err
	}
	return true, nil
}

// samePlan reports whether two plans group the same apps together with
// the same budgets (group order is deterministic, so index-wise
// comparison suffices).
func samePlan(a, b cluster.Plan) bool {
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for gi := range a.Groups {
		if a.Groups[gi].Ways != b.Groups[gi].Ways || len(a.Groups[gi].Apps) != len(b.Groups[gi].Apps) {
			return false
		}
		for i, app := range a.Groups[gi].Apps {
			if b.Groups[gi].Apps[i] != app {
				return false
			}
		}
	}
	return true
}

// emit publishes one group decision to the trace subscriber.
func (c *Controller) emit(g *groupState, kind EventKind, ipc, totalBW float64) {
	if c.Trace == nil {
		return
	}
	c.Trace(Event{
		Group:   g.idx,
		Period:  c.period,
		State:   g.st.String(),
		Kind:    kind,
		Cause:   kind.Cause(),
		HPWays:  g.cur,
		HPIPC:   ipc,
		TotalBW: totalBW,
	})
}

// ChainTrace subscribes fn to the controller's decision stream without
// displacing an existing subscriber: both run, existing first. The
// observability recorder uses this so audit traces compose with the
// CLI's -trace printer and test hooks.
func (c *Controller) ChainTrace(fn func(Event)) {
	if fn == nil {
		return
	}
	if prev := c.Trace; prev != nil {
		c.Trace = func(e Event) {
			prev(e)
			fn(e)
		}
		return
	}
	c.Trace = fn
}

// MultiController and GroupEvent are kept only because the perfbench
// module compiles against these names; nothing else in the repository
// uses them.
type (
	MultiController = Controller
	GroupEvent      = Event
)

var _ policy.Policy = (*Controller)(nil)
