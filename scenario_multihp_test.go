package dicer

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// multiHPs builds HPApp slices from catalog names.
func multiHPs(t *testing.T, names ...string) []HPApp {
	t.Helper()
	hps := make([]HPApp, len(names))
	for i, n := range names {
		hps[i] = HPApp{Profile: mustApp(t, n)}
	}
	return hps
}

// TestMultiScenarioM1MatchesLegacy is the scenario-level half of the
// compatibility pin: one HP app under the grouped DICER with the single
// grouping and a two-CLOS budget reproduces the two-CLOS DICER run
// exactly — same IPCs, same final partition, same EFU.
func TestMultiScenarioM1MatchesLegacy(t *testing.T) {
	const horizon = 40
	split := NewScenario("omnetpp1", "gcc_base1", 3)
	split.HorizonPeriods = horizon
	lres, err := split.Run(NewDICER())
	if err != nil {
		t.Fatal(err)
	}

	mres := runMulti(t, &Scenario{
		HPs:            multiHPs(t, "omnetpp1"),
		BEs:            split.BEs,
		HorizonPeriods: horizon,
		CLOSBudget:     2,
		Grouping:       GroupingSingle,
	})

	if mres.NumGroups() != 1 {
		t.Fatalf("M=1 run built %d groups", mres.NumGroups())
	}
	if got, want := mres.Apps[0].IPC, lres.Apps[0].IPC; got != want {
		t.Fatalf("HP IPC diverged: grouped %v, two-CLOS %v", got, want)
	}
	if got, want := mres.Apps[0].AloneIPC, lres.Apps[0].AloneIPC; got != want {
		t.Fatalf("HP alone IPC diverged: grouped %v, two-CLOS %v", got, want)
	}
	if got, want := mres.GroupWays[0], lres.FinalHPWays; got != want {
		t.Fatalf("final partition diverged: grouped %d ways, two-CLOS %d", got, want)
	}
	if len(mres.BEIPCs) != len(lres.BEIPCs) {
		t.Fatalf("BE count diverged: %d vs %d", len(mres.BEIPCs), len(lres.BEIPCs))
	}
	for i := range mres.BEIPCs {
		if mres.BEIPCs[i] != lres.BEIPCs[i] {
			t.Fatalf("BE %d IPC diverged: grouped %v, two-CLOS %v", i, mres.BEIPCs[i], lres.BEIPCs[i])
		}
	}
	if got, want := mres.EFU(), lres.EFU(); got != want {
		t.Fatalf("EFU diverged: grouped %v, two-CLOS %v", got, want)
	}
}

// runMulti runs a scenario under its own DICER and fails the test on
// error.
func runMulti(t *testing.T, sc *Scenario) ScenarioResult {
	t.Helper()
	res, err := sc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sortedSlowdowns returns the per-app slowdown vector in ascending order
// — the label-free view the metamorphic fairness tests compare.
func sortedSlowdowns(res ScenarioResult) []float64 {
	out := make([]float64, len(res.Apps))
	for i, a := range res.Apps {
		out[i] = a.Slowdown()
	}
	sort.Float64s(out)
	return out
}

// TestMultiScenarioPermutationFairness is the fairness metamorphic test:
// permuting the order HP apps are listed in must not change any
// label-free outcome — the sorted per-app slowdown vector, SLO
// conformance, and EFU. Only the app→core and app→group labels may move.
func TestMultiScenarioPermutationFairness(t *testing.T) {
	names := []string{"milc1", "omnetpp1", "namd1", "povray1", "soplex1", "gcc_base1"}
	perm := []int{3, 0, 5, 2, 4, 1}
	permuted := make([]string, len(names))
	for i, p := range perm {
		permuted[i] = names[p]
	}

	base := runMulti(t, &Scenario{
		HPs: multiHPs(t, names...), BEs: []Profile{mustApp(t, "lbm1")},
		Machine:        func() Machine { m := DefaultMachine(); m.Cores = 8; return m }(),
		HorizonPeriods: 40, CLOSBudget: 6,
	})
	shuffled := runMulti(t, &Scenario{
		HPs: multiHPs(t, permuted...), BEs: []Profile{mustApp(t, "lbm1")},
		Machine:        func() Machine { m := DefaultMachine(); m.Cores = 8; return m }(),
		HorizonPeriods: 40, CLOSBudget: 6,
	})

	const eps = 1e-9
	bs, ss := sortedSlowdowns(base), sortedSlowdowns(shuffled)
	for i := range bs {
		if math.Abs(bs[i]-ss[i]) > eps {
			t.Fatalf("slowdown vector diverged at %d: %v vs %v", i, bs, ss)
		}
	}
	if math.Abs(base.SLOConformance()-shuffled.SLOConformance()) > eps {
		t.Fatalf("SLO conformance diverged: %v vs %v",
			base.SLOConformance(), shuffled.SLOConformance())
	}
	if math.Abs(base.EFU()-shuffled.EFU()) > eps {
		t.Fatalf("EFU diverged: %v vs %v", base.EFU(), shuffled.EFU())
	}
	// Per-app outcomes must follow their app, not their position.
	for i, p := range perm {
		if shuffled.Apps[i].Name != base.Apps[p].Name {
			t.Fatalf("app %d is %s, want %s", i, shuffled.Apps[i].Name, base.Apps[p].Name)
		}
		if math.Abs(shuffled.Apps[i].Slowdown()-base.Apps[p].Slowdown()) > eps {
			t.Fatalf("%s slowdown diverged: %v vs %v", shuffled.Apps[i].Name,
				shuffled.Apps[i].Slowdown(), base.Apps[p].Slowdown())
		}
	}
}

// TestMultiScenarioCLOSRelabelFairness is the CLOS-relabeling metamorphic
// test: growing the CLOS budget beyond what the plan uses only relabels
// CLOS ids (the BE partition moves to a different id) and must leave
// every outcome unchanged.
func TestMultiScenarioCLOSRelabelFairness(t *testing.T) {
	names := []string{"milc1", "omnetpp1", "namd1", "povray1"}
	run := func(budget int) ScenarioResult {
		return runMulti(t, &Scenario{
			HPs: multiHPs(t, names...), BEs: []Profile{mustApp(t, "lbm1")},
			HorizonPeriods: 40, CLOSBudget: budget,
		})
	}
	narrow, wide := run(8), run(16)

	if narrow.NumGroups() != wide.NumGroups() {
		t.Fatalf("group count changed with budget: %d vs %d", narrow.NumGroups(), wide.NumGroups())
	}
	for i := range narrow.Apps {
		if narrow.Apps[i].IPC != wide.Apps[i].IPC {
			t.Fatalf("%s IPC diverged across CLOS relabel: %v vs %v",
				narrow.Apps[i].Name, narrow.Apps[i].IPC, wide.Apps[i].IPC)
		}
		if narrow.Apps[i].Group != wide.Apps[i].Group {
			t.Fatalf("%s group diverged across CLOS relabel: %d vs %d",
				narrow.Apps[i].Name, narrow.Apps[i].Group, wide.Apps[i].Group)
		}
	}
	if narrow.EFU() != wide.EFU() {
		t.Fatalf("EFU diverged across CLOS relabel: %v vs %v", narrow.EFU(), wide.EFU())
	}
	if narrow.SLOConformance() != wide.SLOConformance() {
		t.Fatalf("conformance diverged across CLOS relabel: %v vs %v",
			narrow.SLOConformance(), wide.SLOConformance())
	}
}

// TestMultiScenarioOverBudget pins the headline capability: more HP apps
// than the CLOS budget can host per-app still run, clustered into at
// most CLOSBudget-1 groups with every app assigned and the ways budget
// respected.
func TestMultiScenarioOverBudget(t *testing.T) {
	names := AppNames()
	if len(names) < 20 {
		t.Fatalf("catalog too small: %d", len(names))
	}
	m := DefaultMachine()
	m.Cores = 24
	ms := &Scenario{
		Machine:        m,
		HPs:            multiHPs(t, names[:20]...),
		BEs:            []Profile{mustApp(t, "lbm1"), mustApp(t, "gcc_base1")},
		HorizonPeriods: 30,
		CLOSBudget:     16,
	}
	res := runMulti(t, ms)

	if res.NumGroups() < 1 || res.NumGroups() > 15 {
		t.Fatalf("plan uses %d groups under a 16-CLOS budget", res.NumGroups())
	}
	if len(res.Apps) != 20 {
		t.Fatalf("result covers %d apps, want 20", len(res.Apps))
	}
	waysSum := 0
	for gi, w := range res.GroupWays {
		if w < 1 {
			t.Fatalf("group %d has %d ways", gi, w)
		}
		waysSum += w
	}
	if waysSum > m.LLCWays-1 {
		t.Fatalf("groups hold %d ways of %d (BE floor violated)", waysSum, m.LLCWays)
	}
	for i, a := range res.Apps {
		if a.Group < 0 || a.Group >= res.NumGroups() {
			t.Fatalf("app %d (%s) in group %d of %d", i, a.Name, a.Group, res.NumGroups())
		}
		if a.IPC <= 0 || a.AloneIPC <= 0 {
			t.Fatalf("app %s has degenerate IPCs %v/%v", a.Name, a.IPC, a.AloneIPC)
		}
	}
	if c := res.SLOConformance(); c < 0 || c > 1 {
		t.Fatalf("conformance %v outside [0,1]", c)
	}
	// Per-app grouping is infeasible at this scale and must refuse.
	perApp := *ms
	perApp.Grouping = GroupingPerApp
	if _, err := perApp.Run(nil); err == nil {
		t.Fatal("per-app grouping accepted 20 apps under a 16-CLOS budget")
	}
}

// TestMultiScenarioRecluster pins the Com-CAS hint path end to end:
// periodic re-planning against upcoming-phase hints runs clean and is
// deterministic.
func TestMultiScenarioRecluster(t *testing.T) {
	build := func() *Scenario {
		return &Scenario{
			HPs:            multiHPs(t, "astar1", "bzip21", "milc1", "namd1"),
			BEs:            []Profile{mustApp(t, "lbm1")},
			HorizonPeriods: 60,
			CLOSBudget:     8,
			ReclusterEvery: 5,
			UsePhaseHints:  true,
		}
	}
	a, b := runMulti(t, build()), runMulti(t, build())
	if a.Reclusters != b.Reclusters {
		t.Fatalf("recluster count not deterministic: %d vs %d", a.Reclusters, b.Reclusters)
	}
	for i := range a.Apps {
		if a.Apps[i].IPC != b.Apps[i].IPC {
			t.Fatalf("%s IPC not deterministic: %v vs %v",
				a.Apps[i].Name, a.Apps[i].IPC, b.Apps[i].IPC)
		}
	}
}

// TestMultiScenarioTraceV2 pins the v2 trace surface: a multi-HP run
// emits a dicer-trace/v2 header with the per-app fields and per-period
// group records, and ReadTrace accepts it.
func TestMultiScenarioTraceV2(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceJSONL(&buf)
	ms := &Scenario{
		HPs:            multiHPs(t, "milc1", "namd1"),
		BEs:            []Profile{mustApp(t, "lbm1")},
		HorizonPeriods: 10,
		CLOSBudget:     4,
		Trace:          sink,
	}
	res := runMulti(t, ms)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	h, recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != "dicer-trace/v2" {
		t.Fatalf("schema %q", h.Schema)
	}
	if len(h.HPs) != 2 || len(h.SLOs) != 2 || h.CLOSBudget != 4 || h.Grouping != GroupingClustered {
		t.Fatalf("v2 header fields missing: %+v", h)
	}
	if len(recs) != 10 {
		t.Fatalf("trace holds %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if len(rec.Groups) != res.NumGroups() {
			t.Fatalf("record %d has %d group records, want %d", i, len(rec.Groups), res.NumGroups())
		}
		for gi, g := range rec.Groups {
			if g.Group != gi {
				t.Fatalf("record %d group %d labelled %d", i, gi, g.Group)
			}
			if g.Ways < 1 || g.Mask == 0 {
				t.Fatalf("record %d group %d degenerate: %+v", i, gi, g)
			}
		}
	}
}

// TestMultiScenarioValidation pins the scenario error surface.
func TestMultiScenarioValidation(t *testing.T) {
	if _, err := (&Scenario{}).Run(nil); err == nil {
		t.Fatal("scenario with no HP apps accepted")
	}
	over := &Scenario{
		HPs: multiHPs(t, "milc1"),
		BEs: make([]Profile, 12),
	}
	for i := range over.BEs {
		over.BEs[i] = mustApp(t, "lbm1")
	}
	if _, err := over.Run(nil); err == nil {
		t.Fatal("scenario exceeding core count accepted")
	}
	grouped := &Scenario{HPs: multiHPs(t, "milc1", "namd1"), BEs: []Profile{mustApp(t, "lbm1")}}
	if _, err := grouped.Run(NewDICER()); err == nil {
		t.Fatal("grouped scenario accepted an outside policy")
	}
}
