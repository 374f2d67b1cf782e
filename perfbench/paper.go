package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

const (
	// paperBEs is the BE count of every paper cell: one HP plus nine
	// BEs fill the ten-core node, as in Figure 1.
	paperBEs = 9
	// sloTarget is the share of its alone IPC an HP must keep.
	sloTarget = 0.9
)

func paperConfig(workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// newSuite is the set-up every workload shares: a fresh suite and the
// alone-run reference of every catalog application, resolved in seeded
// order.
func newSuite(o options, workers int, tr *tracer) (*experiments.Suite, error) {
	suite, err := experiments.NewSuite(paperConfig(workers))
	if err != nil {
		return nil, err
	}
	names := app.Names()
	for _, i := range rand.New(rand.NewSource(o.seed)).Perm(len(names)) {
		sp := tr.begin("experiments.Suite.AloneIPC")
		_, err := suite.AloneIPC(names[i])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return suite, nil
}

// paperCell is one co-located run of a paper workload.
type paperCell struct {
	w   experiments.Workload
	pol experiments.PolicyName
}

// paperCells lists a paper workload's runs in canonical order: every
// catalog pair, under UM then CT for paper-static and under DICER for
// paper-dicer.
func paperCells(dicer bool) []paperCell {
	var out []paperCell
	for _, w := range experiments.Pairs(paperBEs) {
		if dicer {
			out = append(out, paperCell{w, experiments.DICER})
		} else {
			out = append(out, paperCell{w, experiments.UM}, paperCell{w, experiments.CT})
		}
	}
	return out
}

// paperInstance is one set-up paper repetition.
type paperInstance struct {
	suite *experiments.Suite
	dicer bool
	cells []paperCell
	jobs  []experiments.Job // paper-dicer's RunMany jobs, one per cell

	fig experiments.Figure1Result
	raw []experiments.Result // paper-dicer's RunMany results
}

func setUpPaper(dicer bool) func(options, int, bool) (instance, error) {
	return func(o options, workers int, _ bool) (instance, error) {
		suite, err := newSuite(o, workers, nil)
		if err != nil {
			return nil, err
		}
		p := &paperInstance{suite: suite, dicer: dicer, cells: paperCells(dicer)}
		if dicer {
			horizon := suite.Config().SweepHorizonPeriods
			for _, c := range p.cells {
				p.jobs = append(p.jobs, experiments.Job{W: c.w, Policy: experiments.DICER, Horizon: horizon})
			}
		}
		return p, nil
	}
}

func (p *paperInstance) eval() error {
	var err error
	if p.dicer {
		p.raw, err = p.suite.RunMany(p.jobs)
		return err
	}
	p.fig, err = p.suite.Figure1(paperBEs)
	return err
}

// results returns every run's result in canonical cell order.
func (p *paperInstance) results() ([]experiments.Result, error) {
	if p.dicer {
		if len(p.raw) != len(p.jobs) {
			return nil, fmt.Errorf("%w: RunMany returned %d results for %d jobs", errCheck, len(p.raw), len(p.jobs))
		}
		return p.raw, nil
	}
	out := make([]experiments.Result, len(p.cells))
	cls, err := p.suite.Classify(paperBEs)
	if err != nil {
		return nil, err
	}
	for i, c := range p.cells {
		if c.pol == experiments.UM {
			out[i] = cls.UM[c.w]
		} else {
			out[i] = cls.CT[c.w]
		}
	}
	return out, nil
}

func (p *paperInstance) outcome() (outcome, error) {
	rs, err := p.results()
	if err != nil {
		return outcome{}, err
	}
	o := paperOutcome(p.cells, rs, int64(p.suite.Config().SweepHorizonPeriods))
	o.notes = paperNotes(p.dicer, p.fig, rs)
	return o, nil
}

// paperOutcome checks and summarises a paper workload's results. An
// operation is one run; it fails when the run is not the cell asked for
// or its IPCs or EFU are out of range.
func paperOutcome(cells []paperCell, rs []experiments.Result, horizon int64) outcome {
	var o outcome
	efuSum, met := 0.0, 0
	for i, r := range rs {
		efu := r.EFU()
		ok := r.Workload == cells[i].w && r.Policy == cells[i].pol &&
			positive(r.HPIPC, r.BEIPC, r.HPAlone, r.BEAlone) && efu > 0 && efu <= 1
		o.ops = append(o.ops, op{runDigest(r), ok})
		efuSum += efu
		if r.SLOAchieved(sloTarget) {
			met++
		}
		o.procPeriods += horizon * int64(1+r.Workload.BECount)
	}
	if n := float64(len(rs)); n > 0 {
		o.efu = efuSum / n
		o.sloMet = float64(met) / n
	}
	return o
}

// positive reports whether every value is finite and above zero.
func positive(vs ...float64) bool {
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runDigest hashes one run's identity and outputs bit for bit.
func runDigest(r experiments.Result) uint64 {
	d := newDigest()
	d.str(r.Workload.String())
	d.str(string(r.Policy))
	d.f64(r.HPIPC)
	d.f64(r.BEIPC)
	d.f64(r.HPAlone)
	d.f64(r.BEAlone)
	return d.sum()
}

// paperNotes are the paper reference lines: a shape comparison against
// the values EXPERIMENTS.md tabulates for the paper.
func paperNotes(dicer bool, fig experiments.Figure1Result, rs []experiments.Result) []string {
	const caveat = "paper-ref: shape comparison only; the simulated platform is not validated against hardware"
	if dicer {
		n := float64(len(rs))
		at := func(slo float64) float64 {
			k := 0
			for _, r := range rs {
				if r.SLOAchieved(slo) {
					k++
				}
			}
			return 100 * float64(k) / n
		}
		return []string{caveat,
			fmt.Sprintf("paper-ref DICER meets 80%% SLO: %.1f%% of %d pairs | paper > 90%% (120-workload sample)", at(0.8), len(rs)),
			fmt.Sprintf("paper-ref DICER meets 90%% SLO: %.1f%% of %d pairs | paper ~74%% (120-workload sample)", at(0.9), len(rs)),
		}
	}
	tick := func(cdf []float64, x float64) float64 {
		for i, t := range fig.Ticks {
			if t == x {
				return cdf[i]
			}
		}
		return math.NaN()
	}
	um1, um11, um2 := tick(fig.UMCDF, 1.0), tick(fig.UMCDF, 1.1), tick(fig.UMCDF, 2.0)
	ct1, ct11, ct2 := tick(fig.CTCDF, 1.0), tick(fig.CTCDF, 1.1), tick(fig.CTCDF, 2.0)
	return []string{caveat,
		fmt.Sprintf("paper-ref Figure 1 CDF %% at 1.0x/1.1x/2.0x: UM %.1f/%.1f/%.1f, CT %.1f/%.1f/%.1f (%d pairs)",
			um1, um11, um2, ct1, ct11, ct2, fig.N),
		fmt.Sprintf("paper-ref UM unaffected (<=1.0x): %.1f%% | paper < 5%%", um1),
		fmt.Sprintf("paper-ref UM tail in (1.1x, 2.0x]: %.1f%% | paper ~29%%", um2-um11),
		fmt.Sprintf("paper-ref UM beyond 2.0x: %.1f%% | paper ~2.5%%", 100-um2),
		fmt.Sprintf("paper-ref CT left of UM at 1.0x/1.1x/2.0x: %v | paper yes", ct1 >= um1 && ct11 >= um11 && ct2 >= um2),
	}
}

// replayer re-drives paper cells through the public layer calls, in the
// order Suite.run makes them: Runner.Reset and Attach, Policy.Setup,
// Meter.Rebaseline, then per period Runner.Step, Meter.Sample and
// Policy.Observe. Like the suite it keeps one runner, emulation and
// meter across cells.
type replayer struct {
	cfg   experiments.Config
	suite *experiments.Suite // alone-run references
	r     *sim.Runner
	emu   *resctrl.Emu
	meter *resctrl.Meter
	dt    float64
	tr    *tracer // nil: untimed replay
	// events counts controller decisions (DICER cells).
	events int64
}

func newReplayer(suite *experiments.Suite, tr *tracer) (*replayer, error) {
	cfg := suite.Config()
	r, err := sim.New(cfg.Machine, 2)
	if err != nil {
		return nil, err
	}
	emu := resctrl.NewEmu(r, false)
	return &replayer{
		cfg: cfg, suite: suite, r: r, emu: emu, meter: resctrl.NewMeter(emu),
		dt: cfg.PeriodSec / float64(cfg.StepsPerPeriod), tr: tr,
	}, nil
}

// newPolicy builds the policy a suite builds for pol.
func (x *replayer) newPolicy(pol experiments.PolicyName) (policy.Policy, error) {
	switch pol {
	case experiments.UM:
		return policy.Unmanaged{}, nil
	case experiments.CT:
		return policy.CacheTakeover{}, nil
	case experiments.DICER:
		c, err := core.New(x.cfg.DICER)
		if err != nil {
			return nil, err
		}
		c.ChainTrace(func(core.Event) { x.events++ })
		return c, nil
	}
	return nil, fmt.Errorf("unknown policy %q", pol)
}

// cell replays one run. With a tracer, the cell is one span and each
// layer's calls inside it one aggregate span; consecutive calls share
// clock reads, so timing costs three reads per period.
func (x *replayer) cell(c paperCell, horizon int) (experiments.Result, error) {
	res := experiments.Result{Workload: c.w, Policy: c.pol}
	tr := x.tr
	sp := tr.begin("experiments.cell")
	hp, err := app.ByName(c.w.HP)
	if err != nil {
		return res, err
	}
	be, err := app.ByName(c.w.BE)
	if err != nil {
		return res, err
	}
	p, err := x.newPolicy(c.pol)
	if err != nil {
		return res, err
	}
	observeName := "policy.Observe"
	if c.pol == experiments.DICER {
		observeName = "core.Controller.Observe"
	}
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	if err := x.r.Reset(2); err != nil {
		return res, err
	}
	x.r.UseReferenceSolver(x.cfg.ReferenceSolver)
	if err := x.r.Attach(0, policy.HPClos, hp); err != nil {
		return res, err
	}
	for i := 1; i <= c.w.BECount; i++ {
		if err := x.r.Attach(i, policy.BEClos, be); err != nil {
			return res, err
		}
	}
	var t1, t2, t3 int64
	if tr != nil {
		t1 = tr.now()
	}
	if err := p.Setup(x.emu); err != nil {
		return res, err
	}
	if tr != nil {
		t2 = tr.now()
	}
	x.meter.Rebaseline()
	if tr != nil {
		t3 = tr.now()
	}
	var step, sample, observe int64
	t := t3
	for period := 0; period < horizon; period++ {
		for s := 0; s < x.cfg.StepsPerPeriod; s++ {
			x.r.Step(x.dt)
		}
		var ta, tb, tc int64
		if tr != nil {
			ta = tr.now()
		}
		pp := x.meter.Sample()
		if tr != nil {
			tb = tr.now()
		}
		err := p.Observe(x.emu, pp)
		if tr != nil {
			tc = tr.now()
			step += ta - t
			sample += tb - ta
			observe += tc - tb
			t = tc
		}
		if err != nil {
			return res, err
		}
	}
	res.HPIPC = x.r.Proc(0).IPC()
	var beSum float64
	for i := 1; i <= c.w.BECount; i++ {
		beSum += x.r.Proc(i).IPC()
	}
	res.BEIPC = beSum / float64(c.w.BECount)
	if tr != nil {
		periods := int64(horizon)
		tr.aggregate("sim.Runner.Reset+Attach", t0, t1, t1-t0, int64(2+c.w.BECount))
		tr.aggregate("policy.Setup", t1, t2, t2-t1, 1)
		tr.aggregate("resctrl.Meter.Rebaseline", t2, t3, t3-t2, 1)
		tr.aggregate("sim.Runner.Step", t3, t, step, periods*int64(x.cfg.StepsPerPeriod))
		tr.aggregate("resctrl.Meter.Sample", t3, t, sample, periods)
		tr.aggregate(observeName, t3, t, observe, periods)
	}
	if res.HPAlone, err = x.suite.AloneIPC(c.w.HP); err != nil {
		return res, err
	}
	if res.BEAlone, err = x.suite.AloneIPC(c.w.BE); err != nil {
		return res, err
	}
	tr.end(sp)
	return res, nil
}

// replayAll replays every cell in canonical order and returns the
// results and the wall time of the whole replay.
func (x *replayer) replayAll(cells []paperCell) ([]experiments.Result, float64, error) {
	horizon := x.cfg.SweepHorizonPeriods
	out := make([]experiments.Result, len(cells))
	sp := x.tr.begin("bench.replay")
	start := time.Now()
	for i, c := range cells {
		r, err := x.cell(c, horizon)
		if err != nil {
			return nil, 0, err
		}
		out[i] = r
	}
	wall := time.Since(start).Seconds()
	x.tr.end(sp)
	return out, wall, nil
}
