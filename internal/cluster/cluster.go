// Package cluster implements LFOC-style cache clustering for multi-HP
// consolidation: when M latency-critical applications share a box whose
// CAT hardware exposes only ~16 CLOS ids, apps must share CLOS groups.
// LFOC's insight is that grouping applications of *similar cache
// sensitivity* is fair — a thrashing streamer packed with a cache-
// sensitive app starves it, while two apps of similar sensitivity share
// a partition with bounded mutual damage.
//
// The policy here scores each HP app's sensitivity from its analytic
// miss-ratio curve (internal/mrc), orders apps on that one-dimensional
// score, and splits the ordering divisively at the largest score gaps.
// The split sequence never consults the CLOS budget — only its length
// does — and the returned plan is the best (lowest predicted max
// per-app penalty, coarsest on ties) among the prefixes the budget
// allows. A budget of b+1 therefore evaluates a superset of the plans
// budget b does, which gives the monotonicity the property suite pins:
// adding CLOS budget never increases the predicted max per-app
// slowdown.
//
// Com-CAS-style phase hints ride along: an AppSpec may carry an optional
// upcoming-phase miss curve (Hint); when present it replaces the current
// curve in scoring, so a re-cluster planned against hints regroups the
// box *ahead* of the phase change instead of reacting after it.
package cluster

import (
	"fmt"
	"sort"

	"dicer/internal/app"
	"dicer/internal/mrc"
)

// AppSpec describes one HP application to the clustering policy.
type AppSpec struct {
	Name string
	Core int     // core hosting the app (used by the controller to move CLOS)
	SLO  float64 // minimum fraction of alone-IPC the app must retain

	// Curve is the miss-ratio curve of the app's current phase.
	Curve mrc.Curve
	// Hint, when non-nil, is the miss-ratio curve of the app's upcoming
	// phase (Com-CAS-style compiler/profile guidance). Scoring uses it
	// in place of Curve so the plan anticipates the phase change.
	Hint *mrc.Curve
	// APKI (accesses per kilo-instruction) weights the app's insertion
	// pressure in the in-group contention model; zero means unit weight.
	APKI float64
}

// HintProgress is the fraction of its current phase an app must have
// completed before Refresh exposes its next phase's curve as Hint.
const HintProgress = 0.75

// Refresh rewrites each spec from its live process, app i running on
// core i of procs: the name, the core, the current phase's miss curve
// and APKI and, when hints is set, the upcoming phase's curve once the
// app has completed HintProgress of a multi-phase profile. Each spec's
// SLO is kept.
func Refresh(specs []AppSpec, procs interface{ Proc(core int) *app.Proc }, hints bool) {
	for i := range specs {
		pr := procs.Proc(i)
		ph := pr.PhaseRef()
		specs[i] = AppSpec{Name: pr.Profile.Name, Core: i, SLO: specs[i].SLO, Curve: ph.Curve, APKI: ph.APKI}
		if n := len(pr.Profile.Phases); hints && n > 1 && pr.PhaseProgress() >= HintProgress {
			specs[i].Hint = &pr.Profile.Phases[(pr.PhaseIndex()+1)%n].Curve
		}
	}
}

// curve returns the curve scoring should use: the hint when present.
func (a *AppSpec) curve() *mrc.Curve {
	if a.Hint != nil {
		return a.Hint
	}
	return &a.Curve
}

// Config bounds a clustering run. All fields are required.
type Config struct {
	TotalWays  int     // LLC associativity
	WayBytes   float64 // bytes per way
	CLOSBudget int     // CLOS ids available in total (HP groups + 1 BE group)

	MinGroupWays int // CAT floor per HP group mask
	MinBEWays    int // ways reserved for the BE partition
}

// kneeEps is the marginal miss-ratio gain below which additional ways
// stop counting toward an app's demand (the MRC knee).
const kneeEps = 0.02

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TotalWays < 2 {
		return fmt.Errorf("cluster: total ways %d < 2", c.TotalWays)
	}
	if c.WayBytes <= 0 {
		return fmt.Errorf("cluster: non-positive way bytes %g", c.WayBytes)
	}
	if c.CLOSBudget < 2 {
		return fmt.Errorf("cluster: CLOS budget %d < 2 (need >=1 HP group + BE)", c.CLOSBudget)
	}
	if c.MinGroupWays < 1 || c.MinBEWays < 1 {
		return fmt.Errorf("cluster: minimum ways must be >= 1 (group %d, be %d)", c.MinGroupWays, c.MinBEWays)
	}
	if c.TotalWays-c.MinBEWays < c.MinGroupWays {
		return fmt.Errorf("cluster: %d ways cannot fit one group of %d plus %d BE ways",
			c.TotalWays, c.MinGroupWays, c.MinBEWays)
	}
	return nil
}

// Group is one CLOS group of the plan: the member apps (indices into the
// spec slice, ascending) and the ways budget its controller may use.
type Group struct {
	Apps  []int
	Ways  int
	Score float64 // mean member sensitivity, for reporting
}

// Plan is a complete grouping decision.
type Plan struct {
	Groups []Group
	// PredictedMaxPenalty is the planner's own estimate of the worst
	// per-app miss-ratio penalty under the plan (share vs full cache).
	// It is the quantity the budget-monotonicity property is stated
	// over; the simulator judges the real slowdown.
	PredictedMaxPenalty float64
}

// GroupOf returns the index of the group containing app i, or -1.
func (p Plan) GroupOf(app int) int {
	for gi, g := range p.Groups {
		for _, a := range g.Apps {
			if a == app {
				return gi
			}
		}
	}
	return -1
}

// Sensitivity scores one curve: the miss-ratio reduction the app gains
// from growing its partition from the CAT floor to the whole LLC. Steep
// curves (cache-friendly apps) score high; flat curves (streamers and
// compute-bound apps) score near zero.
func Sensitivity(cfg Config, c *mrc.Curve) float64 {
	floor := float64(cfg.MinGroupWays) * cfg.WayBytes
	full := float64(cfg.TotalWays) * cfg.WayBytes
	s := c.MissRatio(floor) - c.MissRatio(full)
	if s < 0 {
		s = 0
	}
	return s
}

// DemandWays returns the smallest way count at which the curve is within
// kneeEps of its full-cache miss ratio — the app's working-set knee,
// clamped to at least MinGroupWays.
func DemandWays(cfg Config, c *mrc.Curve) int {
	full := c.MissRatio(float64(cfg.TotalWays) * cfg.WayBytes)
	for w := cfg.MinGroupWays; w < cfg.TotalWays; w++ {
		if c.MissRatio(float64(w)*cfg.WayBytes)-full <= kneeEps {
			return w
		}
	}
	return cfg.TotalWays
}

// scored is the per-app planning view.
type scored struct {
	app    int
	sens   float64
	demand int
	apki   float64
	curve  *mrc.Curve
}

// Assign computes the clustered plan: order apps by cache sensitivity,
// split divisively at the largest sensitivity gaps up to the CLOS
// budget, keep the prefix plan with the lowest predicted max penalty
// (coarsest on ties), and distribute the HP ways budget over groups by
// demand with largest-remainder rounding. The result is deterministic:
// all orderings break ties on ascending app index.
func Assign(cfg Config, specs []AppSpec) (Plan, error) {
	return assign(cfg, specs, 0)
}

// PerApp returns the naive one-CLOS-per-app plan (the baseline clustering
// is judged against). It fails when the apps outnumber the CLOS budget
// or the ways cannot give every app its CAT floor.
func PerApp(cfg Config, specs []AppSpec) (Plan, error) {
	if err := prepare(cfg, specs); err != nil {
		return Plan{}, err
	}
	m := len(specs)
	if m > cfg.CLOSBudget-1 {
		return Plan{}, fmt.Errorf("cluster: %d apps exceed CLOS budget %d (per-app needs %d)",
			m, cfg.CLOSBudget, m+1)
	}
	if m*cfg.MinGroupWays > cfg.TotalWays-cfg.MinBEWays {
		return Plan{}, fmt.Errorf("cluster: %d apps x %d min ways exceed %d HP ways",
			m, cfg.MinGroupWays, cfg.TotalWays-cfg.MinBEWays)
	}
	sc := score(cfg, specs)
	groups := make([][]scored, m)
	for i := range sc {
		groups[sc[i].app] = sc[i : i+1]
	}
	return finalize(cfg, groups), nil
}

// Single returns the degenerate one-group plan: every HP app shares one
// CLOS (the legacy single-HP topology stretched over M apps).
func Single(cfg Config, specs []AppSpec) (Plan, error) {
	return assign(cfg, specs, 1)
}

// PerAppSpill is the naive baseline a practitioner falls back to when
// the apps can outnumber the CLOS ids: the first apps (in arrival
// order, consulting no curve information) each get their own CLOS,
// everyone who no longer fits spills into the last HP group, and the
// HP ways budget is dealt out round-robin. With enough CLOS ids and a
// way count divisible by the groups it degenerates to PerApp with even
// ways; unlike PerApp it never refuses a feasible configuration.
func PerAppSpill(cfg Config, specs []AppSpec) (Plan, error) {
	if err := prepare(cfg, specs); err != nil {
		return Plan{}, err
	}
	budget := cfg.TotalWays - cfg.MinBEWays
	k := cfg.CLOSBudget - 1
	if byWays := budget / cfg.MinGroupWays; byWays < k {
		k = byWays
	}
	if m := len(specs); m < k {
		k = m
	}
	sc := score(cfg, specs)
	groups := make([][]scored, k)
	for i := range sc {
		gi := i
		if gi >= k {
			gi = k - 1
		}
		groups[gi] = append(groups[gi], sc[i])
	}
	ways := make([]int, k)
	for w := 0; w < budget; w++ {
		ways[w%k]++
	}
	return finalizeWays(cfg, groups, ways), nil
}

// assign builds the clustered plan; maxGroups 0 means "up to budget".
func assign(cfg Config, specs []AppSpec, maxGroups int) (Plan, error) {
	if err := prepare(cfg, specs); err != nil {
		return Plan{}, err
	}
	limit := cfg.CLOSBudget - 1
	if byWays := (cfg.TotalWays - cfg.MinBEWays) / cfg.MinGroupWays; byWays < limit {
		limit = byWays
	}
	if len(specs) < limit {
		limit = len(specs)
	}
	if maxGroups > 0 && maxGroups < limit {
		limit = maxGroups
	}

	sc := score(cfg, specs)
	// Order by descending sensitivity, app index ascending on ties: the
	// 1-D axis the divisive splits cut.
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].sens != sc[j].sens {
			return sc[i].sens > sc[j].sens
		}
		return sc[i].app < sc[j].app
	})

	// Walk the full divisive sequence (it never consults the budget —
	// only its length does) and keep the best plan seen: a locally bad
	// split may unlock a better finer plan, so rejection must not stop
	// the walk.
	groups := [][]scored{sc}
	best := finalize(cfg, groups)
	for len(groups) < limit {
		gi, pos := widestGap(groups)
		if gi < 0 {
			break // every group is a single app
		}
		groups = splitAt(groups, gi, pos)
		cand := finalize(cfg, groups)
		if cand.PredictedMaxPenalty <= best.PredictedMaxPenalty+1e-12 {
			best = cand
		}
	}
	return best, nil
}

// prepare validates inputs common to all planners.
func prepare(cfg Config, specs []AppSpec) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("cluster: no HP apps to assign")
	}
	for i := range specs {
		if specs[i].Core < 0 {
			return fmt.Errorf("cluster: app %d (%s) has negative core", i, specs[i].Name)
		}
	}
	return nil
}

// score computes the planning view for every app, in app order.
func score(cfg Config, specs []AppSpec) []scored {
	sc := make([]scored, len(specs))
	for i := range specs {
		c := specs[i].curve()
		apki := specs[i].APKI
		if apki <= 0 {
			apki = 1
		}
		sc[i] = scored{app: i, sens: Sensitivity(cfg, c), demand: DemandWays(cfg, c), apki: apki, curve: c}
	}
	return sc
}

// widestGap finds the largest sensitivity gap between adjacent members
// of any group (groups hold descending-sensitivity runs). Ties break on
// lowest group index, then lowest position. Returns (-1, -1) when no
// group has an interior gap > 0 and no group with >1 member exists.
func widestGap(groups [][]scored) (int, int) {
	bestGi, bestPos := -1, -1
	bestGap := -1.0
	for gi, g := range groups {
		for pos := 0; pos+1 < len(g); pos++ {
			gap := g[pos].sens - g[pos+1].sens
			if gap > bestGap {
				bestGap = gap
				bestGi, bestPos = gi, pos
			}
		}
	}
	return bestGi, bestPos
}

// splitAt returns a copy of groups with group gi split after position
// pos. Group order is preserved; the two halves replace the original in
// place, keeping the plan's group numbering stable and deterministic.
func splitAt(groups [][]scored, gi, pos int) [][]scored {
	out := make([][]scored, 0, len(groups)+1)
	for i, g := range groups {
		if i != gi {
			out = append(out, g)
			continue
		}
		out = append(out, g[:pos+1], g[pos+1:])
	}
	return out
}

// finalize turns a grouping into a Plan: distribute ways, compute the
// predicted penalty, and express groups in ascending-app-index form.
func finalize(cfg Config, groups [][]scored) Plan {
	return finalizeWays(cfg, groups, distributeWays(cfg, groups))
}

// finalizeWays is finalize with the way distribution already decided
// (the naive baselines bring their own).
func finalizeWays(cfg Config, groups [][]scored, ways []int) Plan {
	k := len(groups)
	plan := Plan{Groups: make([]Group, k)}
	for gi, g := range groups {
		apps := make([]int, len(g))
		var sum float64
		for i, s := range g {
			apps[i] = s.app
			sum += s.sens
		}
		sort.Ints(apps)
		plan.Groups[gi] = Group{Apps: apps, Ways: ways[gi], Score: sum / float64(len(g))}
	}
	plan.PredictedMaxPenalty = predictMaxPenalty(cfg, groups, ways)
	return plan
}

// distributeWays shares the HP ways budget (TotalWays - MinBEWays) over
// groups by greedy marginal gain against the same contention model the
// planner optimises: every group gets the CAT floor, then each further
// way goes to the group whose predicted penalty drops the most for one
// more way (ties to the group holding fewer ways, then the lower
// index). Flat groups stop gaining once they stop bending, so scarcity
// flows ways to the curves that use them. The budget is spent fully —
// like CT, the plan starts with BE at its floor and lets the per-group
// controllers donate ways back.
func distributeWays(cfg Config, groups [][]scored) []int {
	k := len(groups)
	budget := cfg.TotalWays - cfg.MinBEWays
	ways := make([]int, k)
	rest := budget
	for gi := range groups {
		ways[gi] = cfg.MinGroupWays
		rest -= cfg.MinGroupWays
	}
	if rest <= 0 {
		return ways
	}
	pen := make([]float64, k)
	gain := make([]float64, k)
	for gi, g := range groups {
		pen[gi] = groupPenalty(cfg, g, ways[gi])
		gain[gi] = pen[gi] - groupPenalty(cfg, g, ways[gi]+1)
	}
	for ; rest > 0; rest-- {
		best := 0
		for gi := 1; gi < k; gi++ {
			if gain[gi] > gain[best] ||
				(gain[gi] == gain[best] && ways[gi] < ways[best]) {
				best = gi
			}
		}
		ways[best]++
		pen[best] -= gain[best]
		gain[best] = pen[best] - groupPenalty(cfg, groups[best], ways[best]+1)
	}
	return ways
}

// penaltyIters bounds the in-group share fixed point; pressureFloor
// keeps an app that currently misses nothing from losing its entire
// share (cached lines still occupy ways), matching the simulator's
// behaviour of never evicting a sharer completely. trafficWeight folds
// the plan's APKI-weighted excess miss traffic into the objective: a
// squeezed sensitive app does not only hurt itself, its extra misses
// load the shared memory link and inflate everyone's latency, which the
// per-app capacity penalty alone cannot see.
const (
	penaltyIters  = 8
	pressureFloor = 0.01
	trafficWeight = 0.04
)

// predictMaxPenalty scores a plan, mirroring the simulator's physics:
// members of one CLOS group contend for the group's bytes in proportion
// to their insertion pressure (access rate × miss ratio at the
// resulting share), resolved by a damped fixed point. The plan's score
// is the worst member's capacity penalty plus the trafficWeight-scaled
// sum of APKI-weighted excess misses across the whole box (the memory
// link is shared by every group). This is what makes splitting worth
// anything — a flat-curve streamer exerts high pressure at any share,
// so packing it with a cache-sensitive app starves the latter, and the
// predictor has to see that coming for the divisive splits to be
// accepted.
func predictMaxPenalty(cfg Config, groups [][]scored, ways []int) float64 {
	var worst, traffic float64
	for gi, g := range groups {
		pen, tr := groupEval(cfg, g, ways[gi])
		if pen > worst {
			worst = pen
		}
		traffic += tr
	}
	return worst + trafficWeight*traffic
}

// groupPenalty is the capacity-only view of groupEval, the quantity the
// way distribution water-fills on.
func groupPenalty(cfg Config, g []scored, ways int) float64 {
	pen, _ := groupEval(cfg, g, ways)
	return pen
}

// groupEval models one group holding `ways` ways: the damped pressure
// fixed point divides the group bytes, and the result is the worst
// member's extra miss ratio versus owning the whole LLC, plus the
// group's APKI-weighted excess miss traffic.
func groupEval(cfg Config, g []scored, ways int) (worst, traffic float64) {
	full := float64(cfg.TotalWays) * cfg.WayBytes
	groupBytes := float64(ways) * cfg.WayBytes
	var shares, press [64]float64
	n := len(g)
	if n > len(shares) {
		n = len(shares) // degenerate over-wide group: truncate the view
	}
	for i := 0; i < n; i++ {
		shares[i] = groupBytes / float64(n)
	}
	for iter := 0; iter < penaltyIters; iter++ {
		var sum float64
		for i := 0; i < n; i++ {
			p := g[i].apki * (pressureFloor + g[i].curve.MissRatio(shares[i]))
			press[i] = p
			sum += p
		}
		if sum <= 0 {
			break // nobody exerts pressure: equal shares stand
		}
		for i := 0; i < n; i++ {
			shares[i] = 0.5*shares[i] + 0.5*groupBytes*press[i]/sum
		}
	}
	for i := 0; i < n; i++ {
		pen := g[i].curve.MissRatio(shares[i]) - g[i].curve.MissRatio(full)
		if pen > worst {
			worst = pen
		}
		if pen > 0 {
			traffic += g[i].apki * pen
		}
	}
	return worst, traffic
}
