package cluster_test

import (
	"math/rand"
	"testing"

	"dicer/internal/cluster"
)

// FuzzClusterAssign is the native-fuzzing variant of the property suite:
// a fuzzer-chosen configuration and a seeded random app population run
// through the clustered planner, and every structural invariant must
// hold — group count within budget, each app assigned exactly once,
// ways floors respected with the HP budget fully spent, stacked masks
// contiguous and disjoint, and the predicted penalty monotone in the
// CLOS budget. `go test` exercises the seed corpus (testdata/fuzz); CI
// runs a short -fuzztime exploration on top.
func FuzzClusterAssign(f *testing.F) {
	f.Add(uint8(20), uint8(16), uint8(1), uint8(1), uint8(4), int64(1))
	f.Add(uint8(11), uint8(4), uint8(2), uint8(2), uint8(20), int64(42))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(1), uint8(1), int64(-7))
	f.Add(uint8(32), uint8(16), uint8(1), uint8(3), uint8(24), int64(99))
	f.Fuzz(func(t *testing.T, waysRaw, budgetRaw, minGroupRaw, minBERaw, mRaw uint8, seed int64) {
		cfg := cluster.Config{
			TotalWays:    4 + int(waysRaw)%29, // 4..32
			WayBytes:     1.25 * mib,
			CLOSBudget:   2 + int(budgetRaw)%15, // 2..16
			MinGroupWays: 1 + int(minGroupRaw)%2,
			MinBEWays:    1 + int(minBERaw)%3,
		}
		if cfg.TotalWays-cfg.MinBEWays < cfg.MinGroupWays {
			cfg.MinGroupWays, cfg.MinBEWays = 1, 1
		}
		m := 1 + int(mRaw)%24
		rng := rand.New(rand.NewSource(seed))
		specs := randSpecs(rng, m)

		plan, err := cluster.Assign(cfg, specs)
		if err != nil {
			t.Fatalf("assign: %v", err)
		}
		checkPlan(t, cfg, m, plan)

		single, err := cluster.Single(cfg, specs)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		checkPlan(t, cfg, m, single)
		if len(single.Groups) != 1 {
			t.Fatalf("single plan has %d groups", len(single.Groups))
		}

		// Per-app is allowed to refuse (budget too small), never to
		// return a malformed plan.
		if perApp, err := cluster.PerApp(cfg, specs); err == nil {
			checkPlan(t, cfg, m, perApp)
			if len(perApp.Groups) != m {
				t.Fatalf("per-app plan has %d groups for %d apps", len(perApp.Groups), m)
			}
		}

		// One extra CLOS id never worsens the predicted penalty.
		wider := cfg
		wider.CLOSBudget++
		widerPlan, err := cluster.Assign(wider, specs)
		if err != nil {
			t.Fatalf("assign (budget+1): %v", err)
		}
		if widerPlan.PredictedMaxPenalty > plan.PredictedMaxPenalty+1e-9 {
			t.Fatalf("budget %d predicts penalty %g > budget %d's %g",
				wider.CLOSBudget, widerPlan.PredictedMaxPenalty,
				cfg.CLOSBudget, plan.PredictedMaxPenalty)
		}
	})
}
