package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// NodeView is the snapshot of one candidate node the scheduler sees:
// capacity, population, the last heartbeat's bandwidth (plus the
// predicted demand of placements already made this period), and the BE
// partition geometry the pressure model needs. The cluster only builds
// views for healthy nodes with a free core, so feasibility beyond that
// is the scheduler's own policy.
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
	Machine         machine.Machine
}

// Scheduler places queued jobs onto candidate nodes. Pick returns the
// chosen node's position in views and whether any node is acceptable;
// returning ok=false queues the job for a later period. Implementations
// must be deterministic given their construction arguments (the random
// scheduler owns a seeded stream). A scheduler belongs to one Cluster,
// which calls Pick under its step lock; schedulers keep state between
// picks (the random stream, the headroom prediction memo) and are not
// safe for concurrent use.
type Scheduler interface {
	Name() string
	Pick(job *Job, views []NodeView) (idx int, ok bool)
}

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
	rng *rand.Rand
}

// Name implements Scheduler.
func (*RandomScheduler) Name() string { return "random" }

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	if len(views) == 0 {
		return 0, false
	}
	return s.rng.Intn(len(views)), true
}

// LeastLoadedScheduler places on the node with the fewest running BE
// jobs (ties to the lowest node ID) — load balancing blind to what the
// jobs actually are.
type LeastLoadedScheduler struct{}

// Name implements Scheduler.
func (LeastLoadedScheduler) Name() string { return "least-loaded" }

// Pick implements Scheduler.
func (LeastLoadedScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	best, ok := 0, false
	for i, v := range views {
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
// A placement pass scores every queued job against every candidate, but
// the prediction depends only on the machine, the profile's phases and
// the BE geometry (ways, count), which repeat across candidates, jobs
// and periods. The scheduler therefore memoises PredictJobGbps per
// profile and geometry for one machine at a time; the memo only ever
// returns what PredictJobGbps returned for the same inputs, so picks are
// exactly those of scoring every candidate from scratch. The zero value
// is ready to use.
type HeadroomScheduler struct {
	// m is the machine the constants and the memo below describe; valid
	// reports that it passed Validate and its geometry fits the memo.
	m     machine.Machine
	valid bool
	// knee and capacity are m's link knee and peak in Gbps, wayBytes
	// the capacity of one LLC way: the score's per-machine constants.
	knee, capacity, wayBytes float64
	// memo maps a profile name to its predictions on m.
	memo map[string]*demandMemo
}

// demandMemo holds one profile's predicted demand on the scheduler's
// machine, PredictJobGbps(m, profile, beWays, beCount) at index
// beWays*(m.Cores+1)+beCount, NaN until computed. phases identifies the
// profile's phase set: catalog profiles (app.ByName, app.ByClass) share
// their Phases backing array, and a profile of the same name with other
// phases resets the entry.
type demandMemo struct {
	phases *app.Phase
	n      int
	gbps   []float64
}

// maxMemoEntries bounds one profile's memo (ways+1 × cores+1 entries;
// 231 on the default machine). Larger geometries predict uncached.
const maxMemoEntries = 1 << 13

// pressureWeight converts LLC overcommit (fraction of the BE partition
// demanded beyond 1×) into bandwidth-headroom-fraction units.
const pressureWeight = 0.15

// Name implements Scheduler.
func (*HeadroomScheduler) Name() string { return "headroom" }

// Pick implements Scheduler.
func (s *HeadroomScheduler) Pick(job *Job, views []NodeView) (int, bool) {
	prof := &job.Profile
	fp := prof.MaxFootprint()
	var row []float64 // the job's memo row on s.m
	best, ok := 0, false
	bestScore := 0.0
	for i := range views {
		v := &views[i]
		if !s.valid || v.Machine != s.m {
			s.reset(&v.Machine)
			row = nil
		}
		if row == nil && s.valid {
			row = s.memoFor(prof)
		}
		score, feasible := s.score(v, s.predict(row, prof, v), fp)
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

// reset points the scheduler at machine m: its score constants, and an
// empty memo if m is valid and small enough to memoise. On a valid
// machine every field the score and the prediction read is an integer
// or a strictly positive float, so a machine that compares equal (==)
// to m gives bit-identical results. A machine failing Validate is never
// memoised, and each of its candidates resets the constants from that
// candidate's own fields.
func (s *HeadroomScheduler) reset(m *machine.Machine) {
	s.m = *m
	s.knee = m.Link.Knee * m.Link.CapacityGBps
	s.capacity = m.Link.CapacityGBps
	s.wayBytes = m.WayBytes()
	s.valid = m.Validate() == nil && m.Cores < maxMemoEntries/(m.LLCWays+1)
	clear(s.memo)
}

// memoFor returns p's memo row on the scheduler's (valid) machine,
// creating or resetting it when p is new or its phases changed; nil for
// a profile without phases.
func (s *HeadroomScheduler) memoFor(p *app.Profile) []float64 {
	if len(p.Phases) == 0 {
		return nil
	}
	e := s.memo[p.Name]
	if e == nil {
		if s.memo == nil {
			s.memo = make(map[string]*demandMemo)
		}
		e = &demandMemo{gbps: make([]float64, (s.m.LLCWays+1)*(s.m.Cores+1))}
		s.memo[p.Name] = e
	}
	if e.phases != &p.Phases[0] || e.n != len(p.Phases) {
		e.phases, e.n = &p.Phases[0], len(p.Phases)
		for i := range e.gbps {
			e.gbps[i] = math.NaN()
		}
	}
	return e.gbps
}

// predict returns PredictJobGbps for the job on v, from row when the
// geometry is inside it.
func (s *HeadroomScheduler) predict(row []float64, p *app.Profile, v *NodeView) float64 {
	if row == nil || v.BEWays < 0 || v.BEWays > s.m.LLCWays || v.BECount < 0 || v.BECount > s.m.Cores {
		return PredictJobGbps(s.m, *p, v.BEWays, v.BECount)
	}
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
