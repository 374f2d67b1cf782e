package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// NodeView is the snapshot of one candidate node the scheduler sees:
// capacity, population, the last heartbeat's bandwidth (plus the
// predicted demand of placements already made this period), and the BE
// partition geometry the pressure model needs. A view without a free
// core is full and never picked (see Scheduler); feasibility beyond
// that is the scheduler's own policy.
type NodeView struct {
	ID        int
	FreeCores int
	BECount   int
	// BEWays is the BE partition width; with it the pressure model knows
	// how many bytes the BEs actually share.
	BEWays int
	// TotalGbps is the node's most recent measured memory bandwidth,
	// inflated by the predicted demand of same-period placements.
	TotalGbps float64
	// BEFootprint sums the running BE jobs' cacheable footprints, each
	// capped at the BE partition size — the LLC pressure already there.
	BEFootprint float64
	// HPGroupPressure is the worst HP CLOS group's LLC overcommit on a
	// multi-HP node (member footprints over group capacity, beyond 1×).
	// Single-HP nodes report zero, keeping the legacy score unchanged.
	HPGroupPressure float64
	// Machine is the node's machine. Every node of a fleet runs the
	// fleet's one machine, so a headroom pass reads its first view's.
	Machine machine.Machine
}

// Scheduler places queued jobs onto candidate nodes. The cluster runs
// one placement pass per period: BeginPass with the period's candidate
// views, Pick for each queued job in queue order, Folded after each
// placement it folds into a view, and EndPass. Between BeginPass and
// EndPass, Pick always receives the pass's views, each at the position
// BeginPass found it, and only the reported folds change them. Pick
// called outside a pass places one job over the views it is given.
// Every view of a pass carries the same machine.
//
// A view whose FreeCores is 0 or less is full. It keeps its position,
// but Pick never returns it, inside a pass or outside one.
//
// Pick returns the chosen node's position in views and whether any node
// is acceptable; returning ok=false queues the job for a later period.
// Implementations must be deterministic given their construction
// arguments (the random scheduler owns a seeded stream). A scheduler
// belongs to one Cluster, which calls it under its step lock;
// schedulers keep state between picks (the random stream, the headroom
// prediction memo and pass rows) and are not safe for concurrent use.
type Scheduler interface {
	// BeginPass opens a placement pass over views.
	BeginPass(views []NodeView)
	Pick(job *Job, views []NodeView) (idx int, ok bool)
	// Folded reports that a placement was folded into views[idx].
	Folded(idx int)
	// EndPass closes the pass.
	EndPass()
}

// passless gives the pass methods, as no-ops, to a scheduler whose picks
// read nothing but the views.
type passless struct{}

func (passless) BeginPass([]NodeView) {}
func (passless) Folded(int)           {}
func (passless) EndPass()             {}

// NewScheduler builds a scheduler by name: "random", "least-loaded" or
// "headroom". seed feeds the random scheduler's stream (ignored by the
// deterministic ones).
func NewScheduler(name string, seed int64) (Scheduler, error) {
	switch name {
	case "random":
		return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}, nil
	case "least-loaded":
		return LeastLoadedScheduler{}, nil
	case "headroom":
		return &HeadroomScheduler{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown scheduler %q (have random, least-loaded, headroom)", name)
}

// SchedulerNames lists the built-in schedulers.
func SchedulerNames() []string { return []string{"random", "least-loaded", "headroom"} }

// RandomScheduler places uniformly at random among candidates — the
// baseline any informed scheduler must beat.
type RandomScheduler struct {
	passless
	rng *rand.Rand
}

// Pick implements Scheduler: one draw over the views with a free core,
// counted in view order.
func (s *RandomScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	open := 0
	for i := range views {
		if views[i].FreeCores > 0 {
			open++
		}
	}
	if open == 0 {
		return 0, false
	}
	n := s.rng.Intn(open)
	for i := range views {
		if views[i].FreeCores > 0 {
			if n == 0 {
				return i, true
			}
			n--
		}
	}
	panic("fleet: random draw past the open views")
}

// LeastLoadedScheduler places on the node with the fewest running BE
// jobs (ties to the lowest node ID) — load balancing blind to what the
// jobs actually are.
type LeastLoadedScheduler struct{ passless }

// Pick implements Scheduler.
func (LeastLoadedScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	best, ok := 0, false
	for i, v := range views {
		if v.FreeCores <= 0 {
			continue
		}
		if !ok || v.BECount < views[best].BECount ||
			(v.BECount == views[best].BECount && v.ID < views[best].ID) {
			best, ok = i, true
		}
	}
	return best, ok
}

// HeadroomScheduler is the informed placer: it predicts the job's memory
// bandwidth demand from its miss-ratio curve at the share of the BE
// partition it would get, refuses nodes the prediction would push past
// the link's queueing knee, and scores the rest by remaining bandwidth
// headroom minus an LLC-overcommit penalty (the job's cacheable
// footprint stacked onto what the resident BEs already demand of the BE
// partition). Highest score wins — effectively worst-fit on bandwidth,
// so streamers spread out instead of saturating one link, with
// cache-hungry jobs steered away from crowded BE partitions.
//
// A placement pass picks for every queued job over the same candidates,
// and a placement changes only the one view it is folded into. The
// scheduler therefore keeps, per profile, a row of its score on every
// candidate of the pass: a profile's first pick in a pass fills the
// row, and its later picks re-score only the candidates folded since.
// The prediction behind a score depends only on the machine, the
// profile's phases and the BE geometry (ways, count), which repeat
// across candidates, jobs and periods, so it is memoised per profile and
// geometry. A pass scores every view on its first view's machine, the
// fleet's one machine, and a pass on another machine starts the memo
// over. Rows and memo only ever hold what scoring the same view from
// scratch gives, and the winner comes from the same comparison in view
// order, so picks are exactly those of scoring every candidate on every
// pick. The zero value is ready to use.
type HeadroomScheduler struct {
	// m is the machine the constants and the memo describe.
	m machine.Machine
	// knee and capacity are m's link knee and peak in Gbps, wayBytes
	// the capacity of one LLC way: the score's per-machine constants.
	knee, capacity, wayBytes float64
	// memo maps a profile name to its predictions and pass row; nil
	// until a pass has a view.
	memo map[string]*demandMemo

	// The placement pass. open reports one is open and pass numbers it.
	// A view keeps its position for the whole pass, so a position is a
	// row slot. folds lists the position of every fold reported so far,
	// and stamp, one entry per view of the pass, holds one past each
	// position's last index in it.
	open  bool
	pass  int
	folds []int32
	stamp []int32
}

// demandMemo is one profile's state in the scheduler: fp is its
// cacheable footprint (MaxFootprint), and gbps holds its
// predicted demand on the scheduler's machine m,
// PredictJobGbps(m, profile, beWays, beCount) at index
// beWays*(m.Cores+1)+beCount, NaN until computed. score and feasible
// (one bit per view) are its pass row: the profile's score on each view
// of pass pass as of its last pick, after seen folds; a full view's bit
// is clear. phases identifies the profile's phase set: catalog profiles
// (app.ByName, app.ByClass) share their Phases backing array, and a
// profile of the same name with other phases makes both stale.
type demandMemo struct {
	phases   *app.Phase
	n        int
	fp       float64
	gbps     []float64
	pass     int
	seen     int
	score    []float64
	feasible []uint64
}

// pressureWeight converts LLC overcommit (fraction of the BE partition
// demanded beyond 1×) into bandwidth-headroom-fraction units.
const pressureWeight = 0.15

// BeginPass implements Scheduler; the first view's machine is the
// pass's.
func (s *HeadroomScheduler) BeginPass(views []NodeView) {
	s.open = true
	s.pass++
	s.folds = s.folds[:0]
	s.stamp = slices.Grow(s.stamp[:0], len(views))[:len(views)]
	if len(views) > 0 && (s.memo == nil || views[0].Machine != s.m) {
		s.reset(&views[0].Machine)
	}
}

// Folded implements Scheduler.
func (s *HeadroomScheduler) Folded(idx int) {
	if !s.open {
		return
	}
	s.folds = append(s.folds, int32(idx))
	s.stamp[idx] = int32(len(s.folds))
}

// EndPass implements Scheduler.
func (s *HeadroomScheduler) EndPass() { s.open = false }

// Pick implements Scheduler. Outside a pass it runs as a one-shot pass.
func (s *HeadroomScheduler) Pick(job *Job, views []NodeView) (int, bool) {
	if !s.open {
		s.BeginPass(views)
		defer s.EndPass()
	}
	n := len(s.stamp)
	if len(views) != n {
		panic(fmt.Sprintf("fleet: Pick over %d views in a pass of %d", len(views), n))
	}
	if n == 0 {
		return 0, false
	}
	prof := &job.Profile
	e := s.entry(prof)
	if e.pass != s.pass {
		// Fill the row: every view, in order. Clearing first drops the
		// bits an earlier, longer pass left past this pass's views.
		e.pass = s.pass
		e.score = slices.Grow(e.score[:0], n)[:n]
		words := (n + 63) / 64
		e.feasible = slices.Grow(e.feasible[:0], words)[:words]
		clear(e.feasible)
		for slot := range views {
			s.put(e, prof, &views[slot], slot)
		}
	} else {
		// Re-score the views folded since the row's last pick, each once,
		// at its last fold.
		for k, slot := range s.folds[e.seen:] {
			if int(s.stamp[slot]) == e.seen+k+1 {
				s.put(e, prof, &views[slot], int(slot))
			}
		}
	}
	e.seen = len(s.folds)

	// The argmax over the feasible slots, in view order.
	best, ok := 0, false
	bestScore := 0.0
	scores := e.score
	for w, word := range e.feasible {
		for ; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			if score := scores[slot]; !ok || score > bestScore ||
				(score == bestScore && views[slot].ID < views[best].ID) {
				best, bestScore, ok = slot, score, true
			}
		}
	}
	return best, ok
}

// put scores p on v, the view in slot, into e's row. A full view is
// infeasible without a score.
func (s *HeadroomScheduler) put(e *demandMemo, p *app.Profile, v *NodeView, slot int) {
	fits := false
	if v.FreeCores > 0 {
		e.score[slot], fits = s.score(v, s.predict(e.gbps, p, v), e.fp)
	}
	if bit := uint64(1) << (slot & 63); fits {
		e.feasible[slot>>6] |= bit
	} else {
		e.feasible[slot>>6] &^= bit
	}
}

// entry returns p's memo entry: created, or emptied when p's phases
// changed, with a NaN prediction for every geometry of machine m.
func (s *HeadroomScheduler) entry(p *app.Profile) *demandMemo {
	var phases *app.Phase
	if len(p.Phases) > 0 {
		phases = &p.Phases[0]
	}
	e := s.memo[p.Name]
	if e != nil && e.phases == phases && e.n == len(p.Phases) {
		return e
	}
	if e == nil {
		e = &demandMemo{}
		s.memo[p.Name] = e
	}
	e.phases, e.n, e.fp, e.pass = phases, len(p.Phases), p.MaxFootprint(), 0
	n := (s.m.LLCWays + 1) * (s.m.Cores + 1)
	e.gbps = slices.Grow(e.gbps[:0], n)[:n]
	for i := range e.gbps {
		e.gbps[i] = math.NaN()
	}
	return e
}

// reset points the scheduler at machine m: its score constants and an
// empty memo. sim.New refuses a machine failing Validate before any node
// exists, and on a valid machine every field the score and the
// prediction read is an integer or a strictly positive float, so a
// machine that compares equal (==) to m gives bit-identical results.
func (s *HeadroomScheduler) reset(m *machine.Machine) {
	s.m = *m
	s.knee = m.Link.Knee * m.Link.CapacityGBps
	s.capacity = m.Link.CapacityGBps
	s.wayBytes = m.WayBytes()
	s.memo = make(map[string]*demandMemo)
}

// predict returns PredictJobGbps for the job on v from row, the job's
// memo. A fleet view's geometry is inside it: 0 ≤ BEWays ≤ LLCWays, and
// 0 ≤ BECount ≤ Cores since FreeCores = Cores − HPs − BECount bounds the
// folds.
func (s *HeadroomScheduler) predict(row []float64, p *app.Profile, v *NodeView) float64 {
	k := v.BEWays*(s.m.Cores+1) + v.BECount
	if math.IsNaN(row[k]) {
		row[k] = PredictJobGbps(s.m, *p, v.BEWays, v.BECount)
	}
	return row[k]
}

// score scores one candidate given the job's predicted demand there and
// its cacheable footprint fp; feasible is false when the placement
// crosses the saturation knee.
func (s *HeadroomScheduler) score(v *NodeView, demand, fp float64) (score float64, feasible bool) {
	predicted := v.TotalGbps + demand
	if predicted > s.knee {
		return 0, false
	}
	score = (s.knee - predicted) / s.capacity

	beBytes := float64(v.BEWays) * s.wayBytes
	if beBytes > 0 {
		if fp > beBytes {
			fp = beBytes
		}
		if overcommit := (v.BEFootprint+fp)/beBytes - 1; overcommit > 0 {
			score -= pressureWeight * overcommit
		}
	}
	// Thrashing HP groups on multi-HP nodes repel placements the same
	// way: their controllers will claw ways back from BE, so the
	// advertised partition overstates what the job would really get.
	score -= pressureWeight * v.HPGroupPressure
	return score, true
}

// PredictJobGbps predicts the memory bandwidth (Gbps) a job would add to
// a node, from its miss-ratio curve evaluated at an equal share of the
// BE partition among beCount resident jobs plus this one, at unloaded
// memory latency. The worst phase bounds the demand — admission should
// be conservative about streamers.
func PredictJobGbps(m machine.Machine, p app.Profile, beWays, beCount int) float64 {
	share := m.WaysBytes(beWays)
	if beCount+1 > 0 {
		share /= float64(beCount + 1)
	}
	worst := 0.0
	for i := range p.Phases {
		ph := &p.Phases[i]
		miss := ph.Curve.MissRatio(share)
		perf := app.PhasePerfMissRef(&m, ph, miss, 1, 1)
		if gbps := perf.BytesPerSec * 8 / 1e9; gbps > worst {
			worst = gbps
		}
	}
	return worst
}
