// Package experiments reproduces the DICER paper's evaluation: it builds
// multiprogrammed workloads from the 59-application catalog, runs them
// under the UM / CT / DICER policies on the simulated platform, and
// regenerates every table and figure of the paper (drivers in figures.go,
// workload classification and sampling in sample.go).
//
// All runs are deterministic. A Suite memoises run results so the figure
// drivers (and the benchmarks in the repository root) can share the
// expensive 59×59 sweeps within a process.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"dicer/internal/app"
	"dicer/internal/box"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/par"
	"dicer/internal/policy"
	"dicer/internal/sim"
)

// Config controls how scenarios are simulated.
type Config struct {
	Machine machine.Machine
	// PeriodSec is the monitoring period T (Table 1: 1 s).
	PeriodSec float64
	// StepsPerPeriod subdivides each period into simulator steps; the
	// operating point is re-solved at each step.
	StepsPerPeriod int
	// HorizonPeriods is the simulated duration of co-located runs, long
	// enough for applications to complete and restart (the paper restarts
	// every application until all have run at least once).
	HorizonPeriods int
	// SweepHorizonPeriods is the (shorter) horizon used for the full
	// 59×59 baseline sweep of Figure 1.
	SweepHorizonPeriods int
	// Workers bounds parallelism for every execution path the suite
	// owns (RunMany, figure sweeps, FleetSuite, Soak, and hypothesis
	// replication via internal/hypo); 0 means GOMAXPROCS. Results are
	// identical for any value — the executor writes into
	// index-addressed slots, so ordering is deterministic by
	// construction.
	Workers int
	// ReferenceSolver routes every simulation through the retained
	// pre-optimisation solver (sim.Runner.UseReferenceSolver). Solver
	// equivalence tests run the same suite both ways; production leaves
	// it false.
	ReferenceSolver bool
	// DICER returns the controller configuration (Table 1 defaults).
	DICER core.Config
	// Trace, when non-nil, is called once per uncached co-located run to
	// obtain that run's trace sink (nil return disables tracing for that
	// run). Runs served from the memo cache do not re-execute and so do
	// not re-emit traces. The callback must be safe for concurrent use
	// (RunMany executes runs in parallel); each returned sink is used by
	// exactly one runner.
	Trace func(w Workload, pol PolicyName) obs.Sink
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Machine:             machine.Default(),
		PeriodSec:           1.0,
		StepsPerPeriod:      4,
		HorizonPeriods:      120,
		SweepHorizonPeriods: 80,
		Workers:             0,
		DICER:               core.DefaultConfig(),
	}
}

// PolicyName identifies a co-location policy in run keys and reports.
type PolicyName string

// The three policies the paper evaluates.
const (
	UM    PolicyName = "UM"
	CT    PolicyName = "CT"
	DICER PolicyName = "DICER"
)

// newPolicy builds a fresh policy instance (DICER is stateful, so every
// run needs its own controller).
func (c Config) newPolicy(name PolicyName) (policy.Policy, error) {
	switch name {
	case UM:
		return policy.Unmanaged{}, nil
	case CT:
		return policy.CacheTakeover{}, nil
	case DICER:
		return core.New(c.DICER)
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// Workload names one multiprogrammed workload: one HP application
// co-located with BECount instances of one BE application.
type Workload struct {
	HP      string
	BE      string
	BECount int
}

func (w Workload) String() string {
	return fmt.Sprintf("%s+%dx%s", w.HP, w.BECount, w.BE)
}

// Result is the outcome of one co-located run.
type Result struct {
	Workload Workload
	Policy   PolicyName

	HPIPC   float64 // cumulative HP IPC over the horizon
	BEIPC   float64 // mean cumulative IPC across BE instances
	HPAlone float64 // HP IPC running alone with the full LLC
	BEAlone float64 // BE IPC running alone with the full LLC
}

// HPNorm returns HP IPC normalised to its alone run.
func (r Result) HPNorm() float64 { return metrics.NormIPC(r.HPIPC, r.HPAlone) }

// BENorm returns mean BE IPC normalised to the BE alone run.
func (r Result) BENorm() float64 { return metrics.NormIPC(r.BEIPC, r.BEAlone) }

// HPSlowdown returns the HP's co-location slowdown.
func (r Result) HPSlowdown() float64 { return metrics.Slowdown(r.HPAlone, r.HPIPC) }

// EFU returns Eq. 1's effective utilisation for the run.
func (r Result) EFU() float64 {
	norm := make([]float64, 0, 1+r.Workload.BECount)
	norm = append(norm, r.HPNorm())
	for i := 0; i < r.Workload.BECount; i++ {
		norm = append(norm, r.BENorm())
	}
	return metrics.EFU(norm)
}

// SLOAchieved reports whether the HP met the given SLO fraction.
func (r Result) SLOAchieved(slo float64) bool {
	return metrics.SLOAchieved(r.HPIPC, r.HPAlone, slo)
}

// SUCI returns Eq. 4 for the run.
func (r Result) SUCI(slo, lambda float64) float64 {
	return metrics.SUCI(r.SLOAchieved(slo), r.EFU(), lambda)
}

// Suite memoises co-located runs for one configuration, and its one
// alone-run table serves every run, fleet cell and hypothesis replicate
// it drives. It is safe for concurrent use: each memo entry is computed
// exactly once (singleflight), and simulation state is pooled and reset
// between runs.
type Suite struct {
	cfg Config

	alone *sim.AloneTable
	runMu sync.Mutex
	runs  map[runKey]*par.Once[Result]

	ctxs sync.Pool // *runCtx, reset before reuse

	classMu sync.Mutex
	class   map[int]*Classification // BECount -> classification
}

type runKey struct {
	w       Workload
	policy  PolicyName
	horizon int
}

// NewSuite creates a Suite for cfg.
func NewSuite(cfg Config) (*Suite, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.PeriodSec <= 0 || cfg.StepsPerPeriod <= 0 || cfg.HorizonPeriods <= 0 ||
		cfg.SweepHorizonPeriods <= 0 {
		return nil, fmt.Errorf("experiments: non-positive timing configuration %+v", cfg)
	}
	if err := cfg.DICER.Validate(); err != nil {
		return nil, err
	}
	return &Suite{
		cfg: cfg,
		alone: sim.NewAloneTable(cfg.Machine, cfg.HorizonPeriods*cfg.StepsPerPeriod,
			cfg.PeriodSec/float64(cfg.StepsPerPeriod), cfg.ReferenceSolver),
		runs:  map[runKey]*par.Once[Result]{},
		class: map[int]*Classification{},
	}, nil
}

// runCtx is the pooled per-run state: a box (Runner, resctrl emulation
// and its Meter), plus the scenario and result a Suite run fills.
// Pooling them together (rather than the Runner alone) carries every
// grown scratch buffer — snapshot slices, counter readings, period
// backing, the scenario's app lists and the result's IPC slices — from
// run to run, so steady-state runs allocate nothing for them. A worker
// holds at most one runCtx at a time; the pool's steady-state population
// equals the executor's worker count.
type runCtx struct {
	box box.Box
	sc  Scenario
	res ScenarioResult
}

// getCtx returns a pooled runCtx on the suite's machine (or a fresh one
// when the pool is empty). Return it with putCtx once the run's counters
// have been read.
func (s *Suite) getCtx() (*runCtx, error) {
	c, _ := s.ctxs.Get().(*runCtx)
	if c == nil {
		c = new(runCtx)
		if err := c.box.Init(s.cfg.Machine); err != nil {
			return nil, err
		}
	}
	c.box.Runner.UseReferenceSolver(s.cfg.ReferenceSolver)
	return c, nil
}

func (s *Suite) putCtx(c *runCtx) {
	if c != nil {
		s.ctxs.Put(c)
	}
}

// scenario fills c's pooled scenario with workload w on the suite's
// platform and timing, reusing its app lists.
func (s *Suite) scenario(c *runCtx, w Workload, horizon int) (*Scenario, error) {
	if w.BECount < 1 || w.BECount > s.cfg.Machine.Cores-1 {
		return nil, fmt.Errorf("experiments: BE count %d outside [1,%d]", w.BECount, s.cfg.Machine.Cores-1)
	}
	hp, err := app.ByName(w.HP)
	if err != nil {
		return nil, err
	}
	be, err := app.ByName(w.BE)
	if err != nil {
		return nil, err
	}
	sc := &c.sc
	hps, bes := sc.HPs[:0], sc.BEs[:0]
	*sc = Scenario{
		Machine:        s.cfg.Machine,
		HPs:            append(hps, HPApp{Profile: hp, SLO: defaultSLO}),
		PeriodSec:      s.cfg.PeriodSec,
		StepsPerPeriod: s.cfg.StepsPerPeriod,
		HorizonPeriods: horizon,
	}
	for i := 0; i < w.BECount; i++ {
		bes = append(bes, be)
	}
	sc.BEs = bes
	return sc, nil
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// workers returns the effective worker count.
func (s *Suite) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AloneIPC returns (memoised) the IPC of the application running alone on
// the machine with the full LLC.
func (s *Suite) AloneIPC(name string) (float64, error) {
	return s.AloneIPCWays(name, s.cfg.Machine.LLCWays)
}

// AloneIPCWays returns the IPC of the application running alone but
// restricted to the given number of (exclusive) LLC ways — the measurement
// behind the paper's Figure 2.
func (s *Suite) AloneIPCWays(name string, ways int) (float64, error) {
	prof, err := app.ByName(name)
	if err != nil {
		return 0, err
	}
	return s.alone.IPC(prof, ways)
}

// Run executes (memoised) one co-located workload under one policy for the
// given horizon in periods.
func (s *Suite) Run(w Workload, pol PolicyName, horizon int) (Result, error) {
	key := runKey{w, pol, horizon}
	s.runMu.Lock()
	c := s.runs[key]
	if c == nil {
		c = new(par.Once[Result])
		s.runs[key] = c
	}
	s.runMu.Unlock()
	return c.Do(func() (Result, error) { return s.runUncached(w, pol, horizon) })
}

// StaticRun executes one workload under an arbitrary static partition with
// hpWays exclusive ways for the HP (the Figure 3 sweep). Not memoised.
func (s *Suite) StaticRun(w Workload, hpWays, horizon int) (Result, error) {
	return s.run(w, policy.Static{HPWays: hpWays}, PolicyName(policy.Static{HPWays: hpWays}.Name()), horizon)
}

func (s *Suite) runUncached(w Workload, pol PolicyName, horizon int) (Result, error) {
	p, err := s.cfg.newPolicy(pol)
	if err != nil {
		return Result{}, err
	}
	return s.run(w, p, pol, horizon)
}

// run simulates one co-located workload on a pooled box: HP on core 0 /
// CLOS 0, BE instances on cores 1..BECount / CLOS 1, the policy
// observing once per monitoring period.
func (s *Suite) run(w Workload, p policy.Policy, polName PolicyName, horizon int) (Result, error) {
	c, err := s.getCtx()
	if err != nil {
		return Result{}, err
	}
	defer s.putCtx(c)
	sc, err := s.scenario(c, w, horizon)
	if err != nil {
		return Result{}, err
	}
	if s.cfg.Trace != nil {
		sc.Trace = s.cfg.Trace(w, polName)
	}
	if err := sc.run(&c.box, p, s.cfg.DICER, s.alone, &c.res); err != nil {
		return Result{}, err
	}
	hp := c.res.Apps[0]
	res := Result{Workload: w, Policy: polName, HPIPC: hp.IPC, HPAlone: hp.AloneIPC, BEAlone: c.res.BEAloneIPCs[0]}
	var beSum float64
	for _, ipc := range c.res.BEIPCs {
		beSum += ipc
	}
	res.BEIPC = beSum / float64(w.BECount)
	return res, nil
}

// RunMany executes all (workload, policy) jobs in parallel, memoising
// through the suite cache, and returns results in job order.
type Job struct {
	W       Workload
	Policy  PolicyName
	Horizon int
}

// RunMany runs jobs across the sharded executor: job i's result lands in
// slot i of a preallocated arena, so output order matches job order for
// any worker count.
func (s *Suite) RunMany(jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := s.execute(len(jobs), func(i int) error {
		var err error
		results[i], err = s.Run(jobs[i].W, jobs[i].Policy, jobs[i].Horizon)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
