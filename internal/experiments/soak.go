package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"

	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/obs"
	"dicer/internal/report"
)

// SoakConfig drives the chaos soak harness: the full DICER control loop
// runs over a matrix of (workload × fault schedule × seed), with the
// invariant checker validating every monitoring period and HP performance
// compared against the fault-free run of the same workload.
type SoakConfig struct {
	// Workloads to soak; empty means DefaultSoakWorkloads().
	Workloads []Workload
	// Schedules are the fault schedules; empty means chaos.Schedules().
	Schedules []chaos.Config
	// Seeds for each schedule; empty means {1, 2, 3}.
	Seeds []int64
	// HorizonPeriods per run; 0 means 60.
	HorizonPeriods int
	// MaxHPDegradation bounds the HP IPC loss relative to the fault-free
	// run: chaos HP IPC must stay >= (1-MaxHPDegradation) × fault-free.
	// 0 means 0.35.
	MaxHPDegradation float64
}

func (c *SoakConfig) defaults() {
	if len(c.Workloads) == 0 {
		c.Workloads = DefaultSoakWorkloads()
	}
	if len(c.Schedules) == 0 {
		c.Schedules = chaos.Schedules()
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.HorizonPeriods == 0 {
		c.HorizonPeriods = 60
	}
	if c.MaxHPDegradation == 0 {
		c.MaxHPDegradation = 0.35
	}
}

// DefaultSoakWorkloads returns the soak matrix's workloads: one
// cache-sensitive CT-Favoured pair, the paper's canonical CT-Thwarted
// pair (milc+gcc, §2.3.2), and a bandwidth-hostile pair that keeps the
// controller in its saturation/sampling states.
func DefaultSoakWorkloads() []Workload {
	return []Workload{
		{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
		{HP: "milc1", BE: "gcc_base1", BECount: 9},
		{HP: "mcf1", BE: "lbm1", BECount: 5},
	}
}

// SoakRun is the outcome of one (workload, schedule, seed) cell.
type SoakRun struct {
	Workload Workload
	Schedule string
	Seed     int64

	HPIPC          float64 // HP cumulative IPC under chaos
	FaultFreeHPIPC float64 // same workload, no faults
	Degradation    float64 // max(0, 1 - HPIPC/FaultFreeHPIPC)

	Stats           chaos.Stats // faults actually injected
	ToleratedFaults int         // Setup/Observe errors tolerated (injected writes)
	InvariantChecks int         // after Setup, every period, and post-drain
	FinalHPWays     int         // the controller's intended HP ways
	Fingerprint     uint64      // FNV-1a over the per-period trajectory
}

// SoakResult aggregates a soak matrix.
type SoakResult struct {
	Runs             []SoakRun
	MaxDegradation   float64
	MaxHPDegradation float64 // the configured bound
}

// Table renders the soak matrix for reports.
func (r *SoakResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Chaos soak: HP IPC under fault schedules (bound: degradation <= %.0f%%)",
			r.MaxHPDegradation*100),
		"Workload", "Schedule", "Seed", "HP IPC", "Fault-free", "Degradation", "Faults")
	for _, run := range r.Runs {
		t.AddRowf(run.Workload.String(), run.Schedule, fmt.Sprintf("%d", run.Seed),
			run.HPIPC, run.FaultFreeHPIPC,
			fmt.Sprintf("%.1f%%", run.Degradation*100), run.Stats.String())
	}
	return t
}

// Soak runs the full matrix across the suite executor. Every cell runs
// regardless of failures elsewhere in the matrix; the returned error is
// the lowest-indexed failing cell in (workload, schedule, seed) order
// and names the cell so the failure replays exactly — the same cell the
// old fail-fast serial loop would have reported, for any worker count.
func (s *Suite) Soak(cfg SoakConfig) (*SoakResult, error) {
	cfg.defaults()
	res := &SoakResult{MaxHPDegradation: cfg.MaxHPDegradation}

	// Fault-free baselines, one per workload, in parallel.
	baselines := make([]SoakRun, len(cfg.Workloads))
	if err := s.execute(len(cfg.Workloads), func(i int) error {
		w := cfg.Workloads[i]
		b, err := s.soakRun(w, chaos.Config{Name: "none"}, 0, cfg.HorizonPeriods)
		if err != nil {
			return fmt.Errorf("soak %s fault-free: %w", w, err)
		}
		baselines[i] = b
		return nil
	}); err != nil {
		return nil, err
	}

	// The chaos matrix, one cell per (workload, schedule, seed), written
	// into index-addressed slots so Runs keeps configuration order.
	type soakCell struct {
		w     Workload
		sched chaos.Config
		seed  int64
		base  float64
	}
	cells := make([]soakCell, 0, len(cfg.Workloads)*len(cfg.Schedules)*len(cfg.Seeds))
	for i, w := range cfg.Workloads {
		for _, sched := range cfg.Schedules {
			for _, seed := range cfg.Seeds {
				cells = append(cells, soakCell{w: w, sched: sched, seed: seed, base: baselines[i].HPIPC})
			}
		}
	}
	runs := make([]SoakRun, len(cells))
	if err := s.execute(len(cells), func(i int) error {
		c := cells[i]
		run, err := s.soakRun(c.w, c.sched, c.seed, cfg.HorizonPeriods)
		if err != nil {
			return fmt.Errorf("soak %s schedule %q seed %d: %w",
				c.w, c.sched.Name, c.seed, err)
		}
		run.FaultFreeHPIPC = c.base
		if c.base > 0 {
			run.Degradation = 1 - run.HPIPC/c.base
			if run.Degradation < 0 {
				run.Degradation = 0
			}
		}
		runs[i] = run
		return nil
	}); err != nil {
		return nil, err
	}

	// Degradation bound, checked in configuration order: the first
	// breach reported is deterministic for any worker count.
	for i, run := range runs {
		if run.Degradation > cfg.MaxHPDegradation {
			c := cells[i]
			return res, fmt.Errorf(
				"soak %s schedule %q seed %d: HP degradation %.1f%% exceeds bound %.1f%% (chaos IPC %.3f vs fault-free %.3f)",
				c.w, c.sched.Name, c.seed, run.Degradation*100, cfg.MaxHPDegradation*100,
				run.HPIPC, run.FaultFreeHPIPC)
		}
		if run.Degradation > res.MaxDegradation {
			res.MaxDegradation = run.Degradation
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// soakRun executes one cell: the DICER controller on the suite's machine
// under one fault schedule, behind the invariant guard — invariants are
// checked after Setup, after every period and, once the chaos layer has
// drained its delayed writes, for full intent/installed consistency.
func (s *Suite) soakRun(w Workload, sched chaos.Config, seed int64, horizon int) (SoakRun, error) {
	run := SoakRun{Workload: w, Schedule: sched.Name, Seed: seed}
	ctl, err := core.New(s.cfg.DICER)
	if err != nil {
		return run, err
	}
	guard := invariant.Wrap(ctl)
	c, err := s.getCtx()
	if err != nil {
		return run, err
	}
	defer s.putCtx(c)
	sc, err := s.scenario(c, w, horizon)
	if err != nil {
		return run, err
	}
	fp := fingerprint{fnv.New64a()}
	sc.Chaos, sc.ChaosSeed, sc.Trace = &sched, seed, fp
	if err := sc.run(&c.box, guard, s.cfg.DICER, s.aloneIPC, &c.res); err != nil {
		return run, err
	}
	run.HPIPC = c.res.Apps[0].IPC
	run.Stats = c.res.ChaosStats
	run.ToleratedFaults = c.res.ToleratedFaults
	run.InvariantChecks = guard.Checker().Checks()
	run.FinalHPWays = ctl.HPWays()
	run.Fingerprint = fp.Sum64()
	return run, nil
}

// fingerprint folds every period's controller state and installed masks
// into an FNV-1a hash: a soak cell's trajectory identity.
type fingerprint struct{ hash.Hash64 }

// Emit implements obs.Sink.
func (f fingerprint) Emit(r *obs.Record) {
	fmt.Fprintf(f, "%d:%d:%s:%x:%x|", r.Period, r.HPWays, r.State, r.HPMask, r.BEMask)
}
