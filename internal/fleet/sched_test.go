package fleet

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dicer/internal/app"
	"dicer/internal/chaos"
	"dicer/internal/machine"
)

// TestPlacementCapacityProperty runs an overloaded cluster under every
// scheduler and checks the core-capacity invariant on every period
// record: no node ever reports more BEs than it has spare cores, and
// the cluster never runs more jobs than fleet BE capacity.
func TestPlacementCapacityProperty(t *testing.T) {
	for _, sched := range SchedulerNames() {
		var buf bytes.Buffer
		runFleet(t, Config{
			Nodes:          3,
			HorizonPeriods: 40,
			Scheduler:      sched,
			SchedSeed:      17,
			Arrivals:       ArrivalConfig{Seed: 13, RatePerPeriod: 6, MeanDurationPeriods: 15},
			QueueCap:       64,
			Trace:          &buf,
		})
		_, recs, err := ReadClusterTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.Default()
		beCap := m.Cores - 1
		for _, rec := range recs {
			total := 0
			for _, hb := range rec.Nodes {
				if hb.BECount > beCap {
					t.Fatalf("%s: period %d node %d runs %d BEs, capacity %d",
						sched, rec.Period, hb.Node, hb.BECount, beCap)
				}
				total += hb.BECount
			}
			if total > 3*beCap {
				t.Fatalf("%s: period %d cluster runs %d BEs, capacity %d", sched, rec.Period, total, 3*beCap)
			}
		}
	}
}

// TestNoPlacementOnFrozenNode freezes a node for a long window under
// heavy load: its BE population must not change while frozen (Place on a
// frozen node is an error that would fail the run).
func TestNoPlacementOnFrozenNode(t *testing.T) {
	var buf bytes.Buffer
	freezeAt, freezeFor := 5, 12
	runFleet(t, Config{
		Nodes:          2,
		HorizonPeriods: 30,
		Arrivals:       ArrivalConfig{Seed: 4, RatePerPeriod: 3, MeanDurationPeriods: 10},
		QueueCap:       64,
		NodeChaos: chaos.NodeSchedule{Name: "one-freeze", Events: []chaos.NodeEvent{
			{Period: freezeAt, Node: 1, Fault: chaos.NodeFreeze, Periods: freezeFor},
		}},
		Trace: &buf,
	})
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frozenCount := -1
	sawFrozen := false
	for _, rec := range recs {
		hb := rec.Nodes[1]
		if rec.Period >= freezeAt && rec.Period < freezeAt+freezeFor {
			if !hb.Frozen {
				t.Fatalf("period %d: node 1 should be frozen: %+v", rec.Period, hb)
			}
			sawFrozen = true
			if frozenCount == -1 {
				frozenCount = hb.BECount
			} else if hb.BECount != frozenCount {
				t.Fatalf("period %d: frozen node's BE count changed %d -> %d",
					rec.Period, frozenCount, hb.BECount)
			}
			if hb.TotalGbps != 0 || hb.HPIPC != 0 {
				t.Fatalf("period %d: frozen node reported readings: %+v", rec.Period, hb)
			}
		} else if hb.Frozen {
			t.Fatalf("period %d: node 1 frozen outside the window", rec.Period)
		}
	}
	if !sawFrozen {
		t.Fatal("freeze window never observed")
	}
}

// TestHeadroomRefusesSaturatedNodes pins the knee feasibility rule: a
// streamer must not be placed on a node whose link is already at the
// knee when an unsaturated candidate exists, and when every candidate is
// past the knee the job queues.
func TestHeadroomRefusesSaturatedNodes(t *testing.T) {
	m := machine.Default()
	knee := m.Link.Knee * m.Link.CapacityGBps
	job := &Job{Profile: app.MustByName("lbm1")} // heavy streamer
	sched := &HeadroomScheduler{}

	saturated := NodeView{ID: 0, FreeCores: 5, BEWays: 10, TotalGbps: knee - 0.1, Machine: m}
	idle := NodeView{ID: 1, FreeCores: 5, BEWays: 10, TotalGbps: 0, Machine: m}

	idx, ok := sched.Pick(job, []NodeView{saturated, idle})
	if !ok || idx != 1 {
		t.Fatalf("Pick = (%d, %v), want the idle node (1, true)", idx, ok)
	}

	if _, ok := sched.Pick(job, []NodeView{saturated, saturated}); ok {
		t.Fatal("placed a streamer with every candidate at the knee; want queueing")
	}

	if pred := PredictJobGbps(m, job.Profile, 10, 0); pred <= 0 {
		t.Fatalf("predicted bandwidth for a streamer should be positive, got %g", pred)
	}
}

// TestHeadroomPrefersHeadroom checks the score orders candidates by
// remaining bandwidth headroom (worst-fit) for a compute-bound job too.
func TestHeadroomPrefersHeadroom(t *testing.T) {
	m := machine.Default()
	job := &Job{Profile: app.MustByName("namd1")}
	busy := NodeView{ID: 0, FreeCores: 5, BEWays: 10, TotalGbps: 20, Machine: m}
	idle := NodeView{ID: 1, FreeCores: 5, BEWays: 10, TotalGbps: 2, Machine: m}
	idx, ok := (&HeadroomScheduler{}).Pick(job, []NodeView{busy, idle})
	if !ok || idx != 1 {
		t.Fatalf("Pick = (%d, %v), want the idle node", idx, ok)
	}
}

// TestLeastLoadedPicksMinimum pins the least-loaded tie-break.
func TestLeastLoadedPicksMinimum(t *testing.T) {
	views := []NodeView{
		{ID: 0, FreeCores: 1, BECount: 3},
		{ID: 1, FreeCores: 1, BECount: 1},
		{ID: 2, FreeCores: 1, BECount: 1},
	}
	idx, ok := LeastLoadedScheduler{}.Pick(nil, views)
	if !ok || idx != 1 {
		t.Fatalf("Pick = (%d, %v), want (1, true)", idx, ok)
	}
	if _, ok := (LeastLoadedScheduler{}).Pick(nil, nil); ok {
		t.Fatal("no candidates should not place")
	}
}

// TestRandomSchedulerSeeded pins the random scheduler's determinism.
func TestRandomSchedulerSeeded(t *testing.T) {
	views := make([]NodeView, 5)
	for i := range views {
		views[i].FreeCores = 1
	}
	a, _ := NewScheduler("random", 99)
	b, _ := NewScheduler("random", 99)
	for i := 0; i < 50; i++ {
		ia, _ := a.Pick(nil, views)
		ib, _ := b.Pick(nil, views)
		if ia != ib {
			t.Fatalf("draw %d: %d != %d", i, ia, ib)
		}
	}
	if _, err := NewScheduler("bogus", 0); err == nil {
		t.Fatal("unknown scheduler should error")
	}
}

// TestRandomPicksMatchCompactedViews holds the random scheduler to the
// stream it drew when the cluster dropped each view as it filled: over
// passes that fill views, a scheduler picking from views kept in place
// chooses the node IDs that a same-seed one chooses from a copy without
// the full views.
func TestRandomPicksMatchCompactedViews(t *testing.T) {
	inPlace, _ := NewScheduler("random", 5)
	compacted, _ := NewScheduler("random", 5)
	rng := rand.New(rand.NewSource(8))
	picks, filled := 0, 0
	for pass := 0; pass < 40; pass++ {
		vs := make([]NodeView, 1+rng.Intn(12))
		for i := range vs {
			vs[i] = NodeView{ID: 3*i + rng.Intn(3), FreeCores: 1 + rng.Intn(3)}
		}
		cs := slices.Clone(vs)
		inPlace.BeginPass(vs)
		compacted.BeginPass(cs)
		// More jobs than free cores, so every pass ends with no view open.
		for k := 0; k < 4*len(vs); k++ {
			gi, gok := inPlace.Pick(nil, vs)
			wi, wok := compacted.Pick(nil, cs)
			if gok != wok || gok && vs[gi].ID != cs[wi].ID {
				t.Fatalf("pass %d pick %d: in place (%d, %v), compacted (%d, %v)", pass, k, gi, gok, wi, wok)
			}
			if !gok {
				continue
			}
			picks++
			vs[gi].FreeCores--
			inPlace.Folded(gi)
			cs[wi].FreeCores--
			compacted.Folded(wi)
			if cs[wi].FreeCores == 0 {
				filled++
				cs = slices.Delete(cs, wi, wi+1)
			}
		}
		inPlace.EndPass()
		compacted.EndPass()
	}
	if picks == 0 || filled == 0 {
		t.Fatalf("inputs too one-sided: %d picks, %d views filled", picks, filled)
	}
}

// TestSchedulersNeverPickFullViews holds every scheduler to the rule
// that a full view keeps its position but is never picked: in one-shot
// picks over lists with full views among them, and through passes that
// fill views, over lists whose length changes from pass to pass.
func TestSchedulersNeverPickFullViews(t *testing.T) {
	m := machine.Default()
	knee := m.Link.Knee * m.Link.CapacityGBps
	cat := app.Catalog()
	rng := rand.New(rand.NewSource(9))
	views := func() []NodeView {
		vs := make([]NodeView, 1+rng.Intn(150))
		for i := range vs {
			free := rng.Intn(3)
			vs[i] = NodeView{
				ID:        i,
				FreeCores: free,
				BECount:   rng.Intn(m.Cores - free),
				BEWays:    rng.Intn(m.LLCWays + 1),
				TotalGbps: 0.5 * rng.Float64() * knee,
				Machine:   m,
			}
		}
		return vs
	}
	job := func() *Job { return &Job{Profile: cat[rng.Intn(len(cat))]} }
	for _, name := range SchedulerNames() {
		sched, err := NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, inPass := 0, 0
		for round := 0; round < 40; round++ {
			vs := views()
			for k := 0; k < 4; k++ {
				if idx, ok := sched.Pick(job(), vs); ok {
					if vs[idx].FreeCores <= 0 {
						t.Fatalf("%s: one-shot pick of full view %d (ID %d)", name, idx, vs[idx].ID)
					}
					oneShot++
				}
			}
			sched.BeginPass(vs)
			for k := 0; k < 3*len(vs); k++ {
				j := job()
				idx, ok := sched.Pick(j, vs)
				if !ok {
					continue
				}
				if vs[idx].FreeCores <= 0 {
					t.Fatalf("%s: round %d pick %d chose full view %d (ID %d)", name, round, k, idx, vs[idx].ID)
				}
				inPass++
				vs[idx].fold(m, &j.Profile)
				sched.Folded(idx)
			}
			sched.EndPass()
		}
		if oneShot == 0 || inPass == 0 {
			t.Fatalf("%s: inputs too one-sided: %d one-shot picks, %d in passes", name, oneShot, inPass)
		}
	}
}

// refHeadroomPick and refHeadroomScore are the reference headroom
// placement: every candidate with a free core scored from scratch, its
// demand predicted by PredictJobGbps, highest score winning with ties to
// the lowest node ID. They are the oracle HeadroomScheduler.Pick must
// match exactly.
func refHeadroomPick(job *Job, views []NodeView) (int, bool) {
	best, ok := 0, false
	bestScore := 0.0
	for i, v := range views {
		if v.FreeCores <= 0 {
			continue
		}
		score, feasible := refHeadroomScore(job, v)
		if !feasible {
			continue
		}
		if !ok || score > bestScore ||
			(score == bestScore && v.ID < views[best].ID) {
			best, bestScore, ok = i, score, true
		}
	}
	return best, ok
}

func refHeadroomScore(job *Job, v NodeView) (score float64, feasible bool) {
	link := v.Machine.Link
	kneeGbps := link.Knee * link.CapacityGBps
	predicted := v.TotalGbps + PredictJobGbps(v.Machine, job.Profile, v.BEWays, v.BECount)
	if predicted > kneeGbps {
		return 0, false
	}
	score = (kneeGbps - predicted) / link.CapacityGBps

	beBytes := v.Machine.WaysBytes(v.BEWays)
	if beBytes > 0 {
		fp := job.Profile.MaxFootprint()
		if fp > beBytes {
			fp = beBytes
		}
		if overcommit := (v.BEFootprint+fp)/beBytes - 1; overcommit > 0 {
			score -= pressureWeight * overcommit
		}
	}
	score -= pressureWeight * v.HPGroupPressure
	return score, true
}

// TestHeadroomPickMatchesReference pins the headroom scheduler's answers
// to the reference scoring: every catalog profile over seeded random
// candidate sets on the default machine, on a second geometry and on
// the default again. Geometry spans the whole partition and core range
// a fleet node can show, bandwidth straddles the knee, and duplicated
// views under other IDs exercise the tie-break. One scheduler serves
// every call, so whatever it keeps between picks is exercised cold and
// warm, across machine changes, and for a profile that shares a catalog
// name but not its phases.
func TestHeadroomPickMatchesReference(t *testing.T) {
	sched, err := NewScheduler("headroom", 0)
	if err != nil {
		t.Fatal(err)
	}
	mA := machine.Default()
	mB := machine.Default()
	mB.LLCWays, mB.Cores, mB.LLCBytes = 16, 12, 20<<20
	mB.Link.CapacityGBps, mB.Link.Knee = 51.2, 0.7

	rng := rand.New(rand.NewSource(1))
	views := func(m machine.Machine) []NodeView {
		n := 8 + rng.Intn(40)
		// A third of the sets crowd every link near its knee, so some
		// jobs find no feasible node.
		lo := 0.0
		if rng.Intn(3) == 0 {
			lo = 0.9
		}
		out := make([]NodeView, 0, n+n/4)
		for i := 0; i < n; i++ {
			free := 1 + rng.Intn(m.Cores)
			v := NodeView{
				ID:          i,
				FreeCores:   free,
				BECount:     rng.Intn(m.Cores - free + 1),
				BEWays:      rng.Intn(m.LLCWays + 1),
				TotalGbps:   (lo + (1.1-lo)*rng.Float64()) * m.Link.Knee * m.Link.CapacityGBps,
				BEFootprint: 1.5 * rng.Float64() * float64(m.LLCBytes),
				Machine:     m,
			}
			if rng.Intn(2) == 0 {
				v.HPGroupPressure = rng.Float64()
			}
			out = append(out, v)
		}
		for i := 0; i < n/4; i++ {
			dup := out[rng.Intn(n)]
			dup.ID = n + i
			out = append(out, dup)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	placed, queued, ties := 0, 0, 0
	check := func(job *Job, vs []NodeView) {
		t.Helper()
		wantIdx, wantOK := refHeadroomPick(job, vs)
		gotIdx, gotOK := sched.Pick(job, vs)
		if gotIdx != wantIdx || gotOK != wantOK {
			t.Fatalf("%s over %d views: Pick = (%d, %v), reference (%d, %v)",
				job.Profile.Name, len(vs), gotIdx, gotOK, wantIdx, wantOK)
		}
		if !wantOK {
			queued++
			return
		}
		placed++
		win, _ := refHeadroomScore(job, vs[wantIdx])
		for j, v := range vs {
			if score, ok := refHeadroomScore(job, v); ok && j != wantIdx && score == win {
				ties++
				break
			}
		}
	}
	for _, m := range []machine.Machine{mA, mB, mA} {
		for round := 0; round < 3; round++ {
			for _, p := range app.Catalog() {
				check(&Job{Profile: p}, views(m))
			}
		}
	}

	// Same name, other phases: a heavier variant must not be answered
	// with the catalog profile's predictions, nor the reverse.
	for _, p := range app.Catalog() {
		heavy := p
		heavy.Phases = slices.Clone(p.Phases)
		for i := range heavy.Phases {
			heavy.Phases[i].APKI *= 4
		}
		vs := views(mA)
		check(&Job{Profile: p}, vs)
		check(&Job{Profile: heavy}, vs)
		check(&Job{Profile: p}, vs)
	}

	t.Logf("%d placed (%d won on the ID tie-break), %d queued", placed, ties, queued)
	if placed == 0 || queued == 0 || ties == 0 {
		t.Fatalf("inputs too one-sided: %d placed, %d ties, %d queued", placed, ties, queued)
	}
}

// TestHeadroomPickAllocFree guards the placement path: once its memo is
// warm, a headroom Pick over a fleet-scale candidate set allocates
// nothing. (TestStepAllocFree's vanishing arrival rate never reaches
// Pick.)
func TestHeadroomPickAllocFree(t *testing.T) {
	views, jobs := placementInputs(t)
	sched, err := NewScheduler("headroom", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		sched.Pick(j, views)
	}
	i := 0
	if avg := testing.AllocsPerRun(2*len(jobs), func() {
		sched.Pick(jobs[i%len(jobs)], views)
		i++
	}); avg != 0 {
		t.Fatalf("warm Pick over %d views allocates %.2f times, want 0", len(views), avg)
	}
}

// TestHeadroomPassMatchesReference drives whole placement passes the
// way the cluster does — each placement folded into its view and
// reported, a filled view keeping its position — and holds every pick
// to the reference scoring of the views as they stand. The views come
// from a stepped two-HP fleet (full nodes among them) and from seeded
// random sets (IDs shuffled with gaps, duplicates under other IDs, on
// the default machine and a second one); each pass's jobs repeat
// profiles, so most picks re-score only what the folds since changed,
// and a profile sharing a catalog name but not its phases takes turns
// with the catalog one.
func TestHeadroomPassMatchesReference(t *testing.T) {
	sched, err := NewScheduler("headroom", 0)
	if err != nil {
		t.Fatal(err)
	}
	mA := machine.Default()
	mB := machine.Default()
	mB.LLCWays, mB.Cores, mB.LLCBytes = 16, 12, 20<<20
	mB.Link.CapacityGBps, mB.Link.Knee = 51.2, 0.7
	rng := rand.New(rand.NewSource(3))

	// Each view's BE count leaves room for its free cores, so the folds
	// keep it within the machine's cores, as on a fleet node.
	randomViews := func(m machine.Machine) []NodeView {
		n := 20 + rng.Intn(40)
		out := make([]NodeView, 0, n+n/4)
		for i := 0; i < n; i++ {
			free := 1 + rng.Intn(3)
			v := NodeView{
				ID:          3*i + rng.Intn(3),
				FreeCores:   free,
				BECount:     rng.Intn(m.Cores - free + 1),
				BEWays:      rng.Intn(m.LLCWays + 1),
				TotalGbps:   rng.Float64() * m.Link.Knee * m.Link.CapacityGBps,
				BEFootprint: rng.Float64() * float64(m.LLCBytes),
				Machine:     m,
			}
			if rng.Intn(2) == 0 {
				v.HPGroupPressure = rng.Float64()
			}
			out = append(out, v)
		}
		for i := 0; i < n/4; i++ {
			dup := out[rng.Intn(n)]
			dup.ID = 3*n + i
			out = append(out, dup)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var heavies []app.Profile
	for _, p := range app.Catalog() {
		heavy := p
		heavy.Phases = slices.Clone(p.Phases)
		for i := range heavy.Phases {
			heavy.Phases[i].APKI *= 4
		}
		heavies = append(heavies, heavy)
	}
	burst := func(n int) []*Job {
		cat := app.Catalog()
		jobs := make([]*Job, n)
		for i := range jobs {
			k := rng.Intn(len(cat))
			if rng.Intn(8) == 0 {
				jobs[i] = &Job{Profile: heavies[k]}
			} else {
				jobs[i] = &Job{Profile: cat[k]}
			}
		}
		return jobs
	}

	placed, filled, queued := 0, 0, 0
	pass := func(views []NodeView, jobs []*Job) {
		t.Helper()
		vs := slices.Clone(views)
		sched.BeginPass(vs)
		defer sched.EndPass()
		for k, j := range jobs {
			wantIdx, wantOK := refHeadroomPick(j, vs)
			gotIdx, gotOK := sched.Pick(j, vs)
			if gotIdx != wantIdx || gotOK != wantOK {
				t.Fatalf("job %d (%s) over %d views: Pick = (%d, %v), reference (%d, %v)",
					k, j.Profile.Name, len(vs), gotIdx, gotOK, wantIdx, wantOK)
			}
			if !gotOK {
				queued++
				continue
			}
			placed++
			v := &vs[gotIdx]
			v.fold(v.Machine, &j.Profile)
			sched.Folded(gotIdx)
			if v.FreeCores <= 0 {
				filled++
			}
		}
	}

	fleetViews, _ := placementInputs(t)
	pass(fleetViews, burst(3*len(fleetViews)))
	for _, m := range []machine.Machine{mA, mB, mA} {
		for round := 0; round < 3; round++ {
			vs := randomViews(m)
			pass(vs, burst(3*len(vs)))
		}
	}

	t.Logf("%d placed (%d filled a view), %d queued", placed, filled, queued)
	if placed == 0 || filled == 0 || queued == 0 {
		t.Fatalf("inputs too one-sided: %d placed, %d filled, %d queued", placed, filled, queued)
	}
}
