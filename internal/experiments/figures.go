package experiments

import (
	"sort"

	"dicer/internal/app"
	"dicer/internal/metrics"
)

// ---------------------------------------------------------------------------
// Figure 1 — cumulative distribution of HP slowdown under UM and CT with
// 9 co-located BEs, over all 3481 catalog pairs.

// Fig1Ticks are the slowdown thresholds on the paper's x-axis.
var Fig1Ticks = []float64{1.0, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 3.0, 4.0, 5.0}

// Figure1Result holds the slowdown CDFs.
type Figure1Result struct {
	BECount int
	N       int       // number of workloads
	Ticks   []float64 // slowdown thresholds
	UMCDF   []float64 // % of workloads with slowdown <= tick, UM
	CTCDF   []float64 // % of workloads with slowdown <= tick, CT
	// Raw samples for further analysis.
	UMSlowdowns, CTSlowdowns []float64
}

// Figure1 reproduces the paper's Figure 1.
func (s *Suite) Figure1(beCount int) (Figure1Result, error) {
	c, err := s.Classify(beCount)
	if err != nil {
		return Figure1Result{}, err
	}
	res := Figure1Result{BECount: beCount, Ticks: Fig1Ticks}
	for _, w := range Pairs(beCount) {
		res.UMSlowdowns = append(res.UMSlowdowns, c.UM[w].HPSlowdown())
		res.CTSlowdowns = append(res.CTSlowdowns, c.CT[w].HPSlowdown())
	}
	res.N = len(res.UMSlowdowns)
	um := metrics.NewCDF(res.UMSlowdowns)
	ct := metrics.NewCDF(res.CTSlowdowns)
	for _, t := range Fig1Ticks {
		// Use a hair above the tick so "slowdown == 1.0" counts at 1.0.
		res.UMCDF = append(res.UMCDF, 100*um.At(t+1e-9))
		res.CTCDF = append(res.CTCDF, 100*ct.At(t+1e-9))
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — cumulative distribution of the minimum LLC ways an
// application needs, running alone, to reach 90/95/99 % of its full-LLC
// performance.

// Fig2Targets are the performance fractions of the paper's Figure 2.
var Fig2Targets = []float64{0.90, 0.95, 0.99}

// Figure2Result holds, per target, the % of applications that reach the
// target with <= w ways (index w-1), plus the per-app minima.
type Figure2Result struct {
	Ways    int
	Targets []float64
	CDF     [][]float64      // [target][way] -> % of applications
	MinWays map[string][]int // app -> min ways per target
}

// Figure2 reproduces the paper's Figure 2.
func (s *Suite) Figure2() (Figure2Result, error) {
	ways := s.cfg.Machine.LLCWays
	names := app.Names()
	res := Figure2Result{
		Ways:    ways,
		Targets: Fig2Targets,
		MinWays: make(map[string][]int, len(names)),
	}

	// Per-app alone IPC at every way count. One executor job per
	// (app, ways) point; job (i, w) writes slot i*ways + (w-1).
	type sweep struct {
		name string
		ipc  []float64
	}
	sweeps := make([]sweep, len(names))
	arena := make([]float64, len(names)*ways)
	for i, name := range names {
		sweeps[i] = sweep{name: name, ipc: arena[i*ways : (i+1)*ways]}
	}
	if err := s.execute(len(names)*ways, func(j int) error {
		i, w := j/ways, j%ways+1
		v, err := s.AloneIPCWays(names[i], w)
		if err != nil {
			return err
		}
		sweeps[i].ipc[w-1] = v
		return nil
	}); err != nil {
		return Figure2Result{}, err
	}

	for _, sw := range sweeps {
		full := sw.ipc[ways-1]
		mins := make([]int, len(Fig2Targets))
		for ti, target := range Fig2Targets {
			mins[ti] = ways
			for w := 1; w <= ways; w++ {
				if sw.ipc[w-1] >= target*full {
					mins[ti] = w
					break
				}
			}
		}
		res.MinWays[sw.name] = mins
	}

	res.CDF = make([][]float64, len(Fig2Targets))
	for ti := range Fig2Targets {
		row := make([]float64, ways)
		for w := 1; w <= ways; w++ {
			n := 0
			for _, mins := range res.MinWays {
				if mins[ti] <= w {
					n++
				}
			}
			row[w-1] = 100 * float64(n) / float64(len(res.MinWays))
		}
		res.CDF[ti] = row
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 3 — HP slowdown across all static LLC partitions for the paper's
// case study: milc (HP) with 9 gcc BEs.

// Figure3Result holds the static-partition sweep.
type Figure3Result struct {
	HP, BE    string
	BECount   int
	HPWays    []int     // x-axis: ways assigned to HP
	Slowdown  []float64 // HP slowdown at each static partition
	UM        float64   // UM slowdown for reference
	BestWays  int
	BestValue float64
}

// Figure3 reproduces the paper's Figure 3 for the given pair (the paper
// uses milc and gcc; callers pass catalog names, e.g. "milc1",
// "gcc_base1").
func (s *Suite) Figure3(hp, be string, beCount int) (Figure3Result, error) {
	w := Workload{HP: hp, BE: be, BECount: beCount}
	res := Figure3Result{HP: hp, BE: be, BECount: beCount, BestValue: -1}

	ways := s.cfg.Machine.LLCWays
	type point struct {
		hpWays   int
		slowdown float64
	}
	points := make([]point, ways-1)
	if err := s.execute(ways-1, func(i int) error {
		hw := i + 1
		r, err := s.StaticRun(w, hw, s.cfg.HorizonPeriods)
		if err != nil {
			return err
		}
		points[i] = point{hpWays: hw, slowdown: r.HPSlowdown()}
		return nil
	}); err != nil {
		return Figure3Result{}, err
	}

	for _, p := range points {
		res.HPWays = append(res.HPWays, p.hpWays)
		res.Slowdown = append(res.Slowdown, p.slowdown)
		if res.BestValue < 0 || p.slowdown < res.BestValue {
			res.BestValue = p.slowdown
			res.BestWays = p.hpWays
		}
	}
	um, err := s.Run(w, UM, s.cfg.HorizonPeriods)
	if err != nil {
		return Figure3Result{}, err
	}
	res.UM = um.HPSlowdown()
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — scatter of effective utilisation vs HP slowdown over the
// 120-workload sample under UM and CT.

// Fig4Point is one workload under one policy.
type Fig4Point struct {
	Workload Workload
	Class    WorkloadClass
	Policy   PolicyName
	Slowdown float64
	EFU      float64
}

// Figure4Result holds the scatter points.
type Figure4Result struct {
	BECount int
	Points  []Fig4Point
}

// Figure4 reproduces the paper's Figure 4.
func (s *Suite) Figure4(beCount int) (Figure4Result, error) {
	sample, err := s.Sample(beCount)
	if err != nil {
		return Figure4Result{}, err
	}
	var jobs []Job
	for _, sw := range sample {
		jobs = append(jobs,
			Job{W: sw.Workload, Policy: UM, Horizon: s.cfg.HorizonPeriods},
			Job{W: sw.Workload, Policy: CT, Horizon: s.cfg.HorizonPeriods})
	}
	results, err := s.RunMany(jobs)
	if err != nil {
		return Figure4Result{}, err
	}
	res := Figure4Result{BECount: beCount}
	for i, r := range results {
		res.Points = append(res.Points, Fig4Point{
			Workload: r.Workload,
			Class:    sample[i/2].Class,
			Policy:   r.Policy,
			Slowdown: r.HPSlowdown(),
			EFU:      r.EFU(),
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 5 — per-workload normalised HP IPC and BE IPC for UM, CT and
// DICER, split by workload class.

// Fig5Row is one workload's normalised performance under all policies.
type Fig5Row struct {
	Workload Workload
	Class    WorkloadClass
	HPNorm   map[PolicyName]float64
	BENorm   map[PolicyName]float64
}

// Figure5Result holds the per-workload rows, CT-F first (as in the paper's
// panel layout).
type Figure5Result struct {
	BECount int
	Rows    []Fig5Row
}

// Policies lists the co-location policies of the paper's evaluation.
var Policies = []PolicyName{UM, CT, DICER}

// Figure5 reproduces the paper's Figure 5.
func (s *Suite) Figure5(beCount int) (Figure5Result, error) {
	sample, err := s.Sample(beCount)
	if err != nil {
		return Figure5Result{}, err
	}
	var jobs []Job
	for _, sw := range sample {
		for _, p := range Policies {
			jobs = append(jobs, Job{W: sw.Workload, Policy: p, Horizon: s.cfg.HorizonPeriods})
		}
	}
	results, err := s.RunMany(jobs)
	if err != nil {
		return Figure5Result{}, err
	}
	res := Figure5Result{BECount: beCount}
	for i, sw := range sample {
		row := Fig5Row{
			Workload: sw.Workload,
			Class:    sw.Class,
			HPNorm:   map[PolicyName]float64{},
			BENorm:   map[PolicyName]float64{},
		}
		for j, p := range Policies {
			r := results[i*len(Policies)+j]
			row.HPNorm[p] = r.HPNorm()
			row.BENorm[p] = r.BENorm()
		}
		res.Rows = append(res.Rows, row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		if res.Rows[i].Class != res.Rows[j].Class {
			return res.Rows[i].Class == CTFavoured
		}
		return res.Rows[i].Workload.String() < res.Rows[j].Workload.String()
	})
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 6–8 share a grid: the 120-workload sample re-run at every core
// count from 2 to Cores (1 HP + 1..Cores-1 BEs) under all three policies.

// Grid holds every sampled run indexed [policy][cores][workload].
type Grid struct {
	CoreCounts []int
	Sample     []SampledWorkload // at the classification BE count
	Runs       map[PolicyName]map[int][]Result
}

// GridFor runs (memoised via the suite cache) the full policy × cores ×
// sample grid.
func (s *Suite) GridFor(classifyBEs int) (*Grid, error) {
	sample, err := s.Sample(classifyBEs)
	if err != nil {
		return nil, err
	}
	g := &Grid{Sample: sample, Runs: map[PolicyName]map[int][]Result{}}
	for c := 2; c <= s.cfg.Machine.Cores; c++ {
		g.CoreCounts = append(g.CoreCounts, c)
	}
	var jobs []Job
	for _, p := range Policies {
		for _, cores := range g.CoreCounts {
			for _, sw := range WithBECount(sample, cores-1) {
				jobs = append(jobs, Job{W: sw.Workload, Policy: p, Horizon: s.cfg.HorizonPeriods})
			}
		}
	}
	results, err := s.RunMany(jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, p := range Policies {
		g.Runs[p] = map[int][]Result{}
		for _, cores := range g.CoreCounts {
			g.Runs[p][cores] = results[i : i+len(sample)]
			i += len(sample)
		}
	}
	return g, nil
}

// Figure6Result is the geometric-mean EFU per policy and core count.
type Figure6Result struct {
	CoreCounts []int
	EFU        map[PolicyName][]float64 // indexed like CoreCounts
}

// Figure6 reproduces the paper's Figure 6 from the shared grid.
func (g *Grid) Figure6() Figure6Result {
	res := Figure6Result{CoreCounts: g.CoreCounts, EFU: map[PolicyName][]float64{}}
	for _, p := range Policies {
		for _, cores := range g.CoreCounts {
			var efus []float64
			for _, r := range g.Runs[p][cores] {
				efus = append(efus, r.EFU())
			}
			res.EFU[p] = append(res.EFU[p], metrics.GeoMean(efus))
		}
	}
	return res
}

// Fig78SLOs are the SLO levels of Figures 7 and 8.
var Fig78SLOs = []float64{0.80, 0.85, 0.90, 0.95}

// Figure7Result is the % of workloads achieving each SLO, per policy and
// core count.
type Figure7Result struct {
	CoreCounts []int
	SLOs       []float64
	// Achieved[slo][policy][coreIdx] is a percentage.
	Achieved map[float64]map[PolicyName][]float64
}

// Figure7 reproduces the paper's Figure 7 from the shared grid.
func (g *Grid) Figure7() Figure7Result {
	res := Figure7Result{
		CoreCounts: g.CoreCounts,
		SLOs:       Fig78SLOs,
		Achieved:   map[float64]map[PolicyName][]float64{},
	}
	for _, slo := range Fig78SLOs {
		res.Achieved[slo] = map[PolicyName][]float64{}
		for _, p := range Policies {
			for _, cores := range g.CoreCounts {
				n := 0
				runs := g.Runs[p][cores]
				for _, r := range runs {
					if r.SLOAchieved(slo) {
						n++
					}
				}
				pct := 100 * float64(n) / float64(len(runs))
				res.Achieved[slo][p] = append(res.Achieved[slo][p], pct)
			}
		}
	}
	return res
}

// Fig8Lambdas are the SUCI weights of Figure 8 (panel a uses 1, panel b
// uses 0.5 and 2).
var Fig8Lambdas = []float64{0.5, 1, 2}

// Figure8Result is the geometric-mean SUCI per lambda, SLO, policy and
// core count.
type Figure8Result struct {
	CoreCounts []int
	SLOs       []float64
	Lambdas    []float64
	// SUCI[lambda][slo][policy][coreIdx].
	SUCI map[float64]map[float64]map[PolicyName][]float64
}

// Figure8 reproduces the paper's Figure 8 from the shared grid.
func (g *Grid) Figure8() Figure8Result {
	res := Figure8Result{
		CoreCounts: g.CoreCounts,
		SLOs:       Fig78SLOs,
		Lambdas:    Fig8Lambdas,
		SUCI:       map[float64]map[float64]map[PolicyName][]float64{},
	}
	for _, lambda := range Fig8Lambdas {
		res.SUCI[lambda] = map[float64]map[PolicyName][]float64{}
		for _, slo := range Fig78SLOs {
			res.SUCI[lambda][slo] = map[PolicyName][]float64{}
			for _, p := range Policies {
				for _, cores := range g.CoreCounts {
					var vals []float64
					for _, r := range g.Runs[p][cores] {
						vals = append(vals, r.SUCI(slo, lambda))
					}
					res.SUCI[lambda][slo][p] = append(res.SUCI[lambda][slo][p], metrics.GeoMean(vals))
				}
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Headline claims (§1, §4.2): SLO conformance and mean EFU for DICER at
// full server occupancy.

// HeadlineResult summarises the paper's headline numbers.
type HeadlineResult struct {
	BECount    int
	PctSLO80   float64 // paper: > 90 % of workloads
	PctSLO90   float64 // paper: ~74 % of workloads
	GeoMeanEFU float64 // paper: ~0.6 effective utilisation
	MeanEFU    float64
}

// Headline computes the headline claims from the shared grid at the given
// core count (10 in the paper: 1 HP + 9 BEs).
func (g *Grid) Headline(cores int) HeadlineResult {
	res := HeadlineResult{BECount: cores - 1}
	runs := g.Runs[DICER][cores]
	var n80, n90 int
	var efus []float64
	for _, r := range runs {
		if r.SLOAchieved(0.80) {
			n80++
		}
		if r.SLOAchieved(0.90) {
			n90++
		}
		efus = append(efus, r.EFU())
	}
	res.PctSLO80 = 100 * float64(n80) / float64(len(runs))
	res.PctSLO90 = 100 * float64(n90) / float64(len(runs))
	res.GeoMeanEFU = metrics.GeoMean(efus)
	res.MeanEFU = metrics.Mean(efus)
	return res
}
