package cluster_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/mrc"
)

const mib = 1 << 20

// randCurve draws a random working-set mixture: a streaming fraction and
// up to three components with footprints spanning tiny-to-LLC-busting.
func randCurve(rng *rand.Rand) mrc.Curve {
	stream := rng.Float64() * 0.4
	budget := 1 - stream
	n := 1 + rng.Intn(3)
	comps := make([]mrc.Component, 0, n)
	for i := 0; i < n; i++ {
		frac := budget * (0.2 + 0.6*rng.Float64()) / float64(n)
		comps = append(comps, mrc.Component{
			Bytes: (0.25 + rng.Float64()*63.75) * mib,
			Frac:  frac,
		})
	}
	return mrc.MustCurve(stream, comps...)
}

// randSpecs draws m random HP apps; a few carry phase hints.
func randSpecs(rng *rand.Rand, m int) []cluster.AppSpec {
	specs := make([]cluster.AppSpec, m)
	for i := range specs {
		specs[i] = cluster.AppSpec{
			Name:  "app",
			Core:  i,
			SLO:   0.8 + rng.Float64()*0.15,
			Curve: randCurve(rng),
			APKI:  rng.Float64() * 20,
		}
		if rng.Intn(4) == 0 {
			h := randCurve(rng)
			specs[i].Hint = &h
		}
	}
	return specs
}

// randConfig draws a valid clustering config.
func randConfig(rng *rand.Rand) cluster.Config {
	cfg := cluster.Config{
		TotalWays:    4 + rng.Intn(29), // 4..32
		WayBytes:     (0.5 + rng.Float64()*1.5) * mib,
		CLOSBudget:   2 + rng.Intn(15), // 2..16
		MinGroupWays: 1 + rng.Intn(2),
		MinBEWays:    1 + rng.Intn(3),
	}
	if cfg.TotalWays-cfg.MinBEWays < cfg.MinGroupWays {
		cfg.MinGroupWays, cfg.MinBEWays = 1, 1
	}
	return cfg
}

// contiguous reports whether mask is one unbroken run of set bits.
func contiguous(mask uint64) bool {
	if mask == 0 {
		return false
	}
	run := mask >> bits.TrailingZeros64(mask)
	return run&(run+1) == 0
}

// checkPlan asserts every structural invariant the clustering policy
// promises: group count within the CLOS budget, every app assigned
// exactly once, per-group ways at least the CAT floor with the HP budget
// fully spent, and stacked masks contiguous, disjoint and exhaustive
// with the BE partition keeping its reserve.
func checkPlan(tb testing.TB, cfg cluster.Config, m int, plan cluster.Plan) {
	tb.Helper()
	k := len(plan.Groups)
	if k < 1 {
		tb.Fatalf("plan has no groups")
	}
	if k > cfg.CLOSBudget-1 {
		tb.Fatalf("plan uses %d groups, CLOS budget allows %d", k, cfg.CLOSBudget-1)
	}
	if k > m {
		tb.Fatalf("plan uses %d groups for %d apps", k, m)
	}

	seen := make([]int, m)
	waysSum := 0
	ways := make([]int, k)
	for gi, g := range plan.Groups {
		if len(g.Apps) == 0 {
			tb.Fatalf("group %d is empty", gi)
		}
		for i, a := range g.Apps {
			if a < 0 || a >= m {
				tb.Fatalf("group %d contains out-of-range app %d", gi, a)
			}
			seen[a]++
			if i > 0 && g.Apps[i-1] >= a {
				tb.Fatalf("group %d apps not ascending: %v", gi, g.Apps)
			}
		}
		if g.Ways < cfg.MinGroupWays {
			tb.Fatalf("group %d has %d ways, floor is %d", gi, g.Ways, cfg.MinGroupWays)
		}
		waysSum += g.Ways
		ways[gi] = g.Ways
	}
	for a, n := range seen {
		if n != 1 {
			tb.Fatalf("app %d assigned %d times", a, n)
		}
	}
	if budget := cfg.TotalWays - cfg.MinBEWays; waysSum != budget {
		tb.Fatalf("plan spends %d HP ways, budget is %d", waysSum, budget)
	}
	if plan.PredictedMaxPenalty < 0 {
		tb.Fatalf("negative predicted penalty %g", plan.PredictedMaxPenalty)
	}

	masks, err := stackMasks(cfg.TotalWays, ways)
	if err != nil {
		tb.Fatalf("StackMasks: %v", err)
	}
	if len(masks) != k+1 {
		tb.Fatalf("StackMasks returned %d masks for %d groups", len(masks), k)
	}
	var union uint64
	for i, mask := range masks {
		if !contiguous(mask) {
			tb.Fatalf("mask %d (%x) not contiguous", i, mask)
		}
		if union&mask != 0 {
			tb.Fatalf("mask %d (%x) overlaps earlier masks (%x)", i, mask, union)
		}
		union |= mask
		want := cfg.MinBEWays
		if i < k {
			want = ways[i]
		}
		if got := bits.OnesCount64(mask); got != want {
			tb.Fatalf("mask %d is %d ways wide, want %d", i, got, want)
		}
	}
	if full := uint64(1)<<cfg.TotalWays - 1; union != full {
		tb.Fatalf("masks cover %x, want %x", union, full)
	}
}

// TestAssignProperties drives the clustered planner through a seeded
// matrix of 2000 random configurations and app populations, checking
// every structural invariant and that planning is deterministic.
func TestAssignProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 2000; draw++ {
		cfg := randConfig(rng)
		m := 1 + rng.Intn(20)
		specs := randSpecs(rng, m)

		plan, err := cluster.Assign(cfg, specs)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		checkPlan(t, cfg, m, plan)

		again, err := cluster.Assign(cfg, specs)
		if err != nil {
			t.Fatalf("draw %d (repeat): %v", draw, err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("draw %d: planning is not deterministic:\n%+v\n%+v", draw, plan, again)
		}
	}
}

// TestAssignMonotonicBudget pins the LFOC planner's key guarantee:
// adding CLOS budget never increases the predicted max per-app penalty.
// The split sequence never consults the budget and only accepts splits
// that do not worsen the penalty, so plan(b+1) is plan(b) plus at most
// one accepted split. Seeded matrix, 2000 draws.
func TestAssignMonotonicBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for draw := 0; draw < 2000; draw++ {
		cfg := randConfig(rng)
		m := 1 + rng.Intn(20)
		specs := randSpecs(rng, m)

		prev := -1.0
		prevK := 0
		for budget := 2; budget <= 12; budget++ {
			cfg.CLOSBudget = budget
			plan, err := cluster.Assign(cfg, specs)
			if err != nil {
				t.Fatalf("draw %d budget %d: %v", draw, budget, err)
			}
			if prev >= 0 && plan.PredictedMaxPenalty > prev+1e-9 {
				t.Fatalf("draw %d: budget %d predicts penalty %g > budget %d's %g",
					draw, budget, plan.PredictedMaxPenalty, budget-1, prev)
			}
			if prev >= 0 && len(plan.Groups) < prevK {
				t.Fatalf("draw %d: budget %d uses %d groups, budget %d used %d",
					draw, budget, len(plan.Groups), budget-1, prevK)
			}
			prev = plan.PredictedMaxPenalty
			prevK = len(plan.Groups)
		}
	}
}

// TestPerApp pins the naive baseline: one CLOS per app when it fits,
// explicit errors when the budget or the ways cannot host it.
func TestPerApp(t *testing.T) {
	cfg := cluster.Config{
		TotalWays: 20, WayBytes: 1.25 * mib, CLOSBudget: 8,
		MinGroupWays: 1, MinBEWays: 1,
	}
	rng := rand.New(rand.NewSource(3))
	specs := randSpecs(rng, 5)

	plan, err := cluster.PerApp(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, cfg, 5, plan)
	if len(plan.Groups) != 5 {
		t.Fatalf("per-app plan has %d groups, want 5", len(plan.Groups))
	}
	for gi, g := range plan.Groups {
		if len(g.Apps) != 1 || g.Apps[0] != gi {
			t.Fatalf("per-app group %d holds %v, want [%d]", gi, g.Apps, gi)
		}
	}

	if _, err := cluster.PerApp(cfg, randSpecs(rng, 9)); err == nil {
		t.Fatal("per-app accepted 9 apps under an 8-CLOS budget")
	}
	tight := cfg
	tight.TotalWays = 6
	tight.CLOSBudget = 16
	tight.MinGroupWays = 2
	if _, err := cluster.PerApp(tight, randSpecs(rng, 4)); err == nil {
		t.Fatal("per-app accepted 4x2 min ways in a 5-way HP budget")
	}
}

// TestSingle pins the degenerate plan every M=1 path rides on.
func TestSingle(t *testing.T) {
	cfg := cluster.Config{
		TotalWays: 20, WayBytes: 1.25 * mib, CLOSBudget: 16,
		MinGroupWays: 1, MinBEWays: 1,
	}
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{1, 2, 7, 20} {
		plan, err := cluster.Single(cfg, randSpecs(rng, m))
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, cfg, m, plan)
		if len(plan.Groups) != 1 {
			t.Fatalf("single plan for m=%d has %d groups", m, len(plan.Groups))
		}
		if plan.Groups[0].Ways != cfg.TotalWays-cfg.MinBEWays {
			t.Fatalf("single plan holds %d ways, want the full HP budget %d",
				plan.Groups[0].Ways, cfg.TotalWays-cfg.MinBEWays)
		}
	}
}

// TestHintRegrouping pins the Com-CAS hint path: a phase hint replaces
// the current curve in scoring, so an app whose upcoming phase is cache-
// hungry is planned as sensitive even while its current phase streams.
func TestHintRegrouping(t *testing.T) {
	cfg := cluster.Config{
		TotalWays: 20, WayBytes: 1.25 * mib, CLOSBudget: 16,
		MinGroupWays: 1, MinBEWays: 1,
	}
	flat := mrc.MustCurve(0.8)
	steep := mrc.MustCurve(0.05, mrc.Component{Bytes: 8 * mib, Frac: 0.9})

	noHint := cluster.AppSpec{Name: "a", Core: 0, Curve: flat}
	hinted := noHint
	hinted.Hint = &steep

	if s := cluster.Sensitivity(cfg, &steep); cluster.Sensitivity(cfg, &flat) >= s {
		t.Fatal("test curves do not separate: flat should score below steep")
	}

	base, err := cluster.Assign(cfg, []cluster.AppSpec{noHint, {Name: "b", Core: 1, Curve: steep}})
	if err != nil {
		t.Fatal(err)
	}
	withHint, err := cluster.Assign(cfg, []cluster.AppSpec{hinted, {Name: "b", Core: 1, Curve: steep}})
	if err != nil {
		t.Fatal(err)
	}
	appWays := func(p cluster.Plan, app int) int { return p.Groups[p.GroupOf(app)].Ways }
	// Unhinted, the streaming app's demand is the floor: its partition is
	// starved relative to the cache-hungry app's.
	if appWays(base, 0) >= appWays(withHint, 0) {
		t.Fatalf("hint did not grow the streamer's allocation: base %d ways, hinted %d",
			appWays(base, 0), appWays(withHint, 0))
	}
	// Hinted, both apps present the same upcoming-phase demand, so their
	// allocations are within one rounding way of each other.
	if d := appWays(withHint, 0) - appWays(withHint, 1); d < -1 || d > 1 {
		t.Fatalf("hinted equal-demand apps got ways %d vs %d",
			appWays(withHint, 0), appWays(withHint, 1))
	}
}

// stackMasks lays out contiguous, disjoint way masks for a multi-group
// plan: group 0 occupies the topmost ways, each further group stacks
// below it, and the BE partition takes the low-order remainder — the
// multi-group generalisation of policy.HPMask/BEMask (at one group it
// reduces to them exactly): the tests' oracle for the planner's masks.
// ways holds each group's current allocation;
// the returned slice has len(ways)+1 masks with the BE mask last.
func stackMasks(totalWays int, ways []int) ([]uint64, error) {
	sum := 0
	for gi, w := range ways {
		if w < 1 {
			return nil, fmt.Errorf("cluster: group %d has %d ways < 1", gi, w)
		}
		sum += w
	}
	if sum >= totalWays {
		return nil, fmt.Errorf("cluster: %d group ways leave no BE ways of %d total", sum, totalWays)
	}
	masks := make([]uint64, len(ways)+1)
	top := totalWays
	for gi, w := range ways {
		masks[gi] = cache.ContiguousMask(top-w, w)
		top -= w
	}
	masks[len(ways)] = cache.ContiguousMask(0, top)
	return masks, nil
}

// TestStackMasksErrors pins the explicit failure modes.
func TestStackMasksErrors(t *testing.T) {
	if _, err := stackMasks(20, []int{10, 0}); err == nil {
		t.Fatal("StackMasks accepted a zero-way group")
	}
	if _, err := stackMasks(20, []int{12, 8}); err == nil {
		t.Fatal("StackMasks accepted group ways that leave no BE ways")
	}
}

// TestConfigValidate pins the config error surface.
func TestConfigValidate(t *testing.T) {
	good := cluster.Config{
		TotalWays: 20, WayBytes: 1.25 * mib, CLOSBudget: 16,
		MinGroupWays: 1, MinBEWays: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*cluster.Config){
		func(c *cluster.Config) { c.TotalWays = 1 },
		func(c *cluster.Config) { c.WayBytes = 0 },
		func(c *cluster.Config) { c.CLOSBudget = 1 },
		func(c *cluster.Config) { c.MinGroupWays = 0 },
		func(c *cluster.Config) { c.MinBEWays = 0 },
		func(c *cluster.Config) { c.TotalWays = 4; c.MinBEWays = 3; c.MinGroupWays = 2 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted: %+v", i, cfg)
		}
	}
}
