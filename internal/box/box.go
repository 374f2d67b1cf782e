// Package box is one simulated server and its monitoring period: the
// per-server loop DICER runs (Listing 1), read the counters once per
// period and let the policy move the way masks. HP applications run on
// cores 0..M-1, BE applications on the cores after them. Every
// experiments.Scenario and every fleet node runs on a Box.
package box

import (
	"dicer/internal/app"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/obs"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// HP is one high-priority application: the profile plus its SLO (target
// fraction of alone performance).
type HP struct {
	Profile app.Profile
	SLO     float64
}

// Config is the workload and timing a box is built for, and the
// parameters of the box's own DICER.
type Config struct {
	HPs []HP
	BEs []app.Profile
	// PeriodSec is the monitoring period; StepsPerPeriod subdivides it
	// for the simulator.
	PeriodSec      float64
	StepsPerPeriod int
	// CLOSBudget, Grouping, ReclusterEvery and UsePhaseHints configure a
	// grouped box's controller (core.MultiConfig).
	CLOSBudget     int
	Grouping       string
	ReclusterEvery int
	UsePhaseHints  bool
	// DICER configures the box's own DICER (each group's, when grouped).
	DICER core.Config
}

// Grouped reports whether the box runs the grouped controller: several
// HP apps, or a set Grouping. Otherwise it runs on the paper's two-CLOS
// split, HP apps in CLOS 0 and BEs in CLOS 1.
func (c Config) Grouped() bool { return c.Grouping != "" || len(c.HPs) > 1 }

// Box is one server: a simulator, its resctrl emulation and the policy
// that manages it. Init it on a machine, Build it for a workload,
// optionally wrap Sys and Policy, Start it, then call Period once per
// monitoring period. A Box is rebuilt in place, so it can be pooled
// between runs.
type Box struct {
	Runner *sim.Runner
	// Emu is the plain emulation over Runner.
	Emu *resctrl.Emu
	// Sys is the substrate the policy actuates: Emu, or a wrapper over it
	// installed between Build and Start.
	Sys resctrl.System
	// Meter samples Sys; Start sets it.
	Meter *resctrl.Meter
	// Policy is the policy as run, possibly wrapped between Build and
	// Start.
	Policy policy.Policy
	// Grouped is the box's own grouped DICER; nil on the two-CLOS split.
	Grouped *core.Controller
	// Rec, when non-nil, records every period after the policy observed
	// it.
	Rec *obs.Recorder
	// OnPeriod, when non-nil, receives every reading before the policy
	// observes it.
	OnPeriod func(period int, p resctrl.Period)

	emuMeter *resctrl.Meter // Emu's meter, made by the first Start and kept
	hints    bool
	steps    int
	dt       float64
}

// Init makes b an empty box on machine m. A Box is initialised in place
// so its owner (a fleet node, a pooled Suite run) can hold it by value.
func (b *Box) Init(m machine.Machine) error {
	r, err := sim.New(m, 1)
	if err != nil {
		return err
	}
	*b = Box{Runner: r, Emu: resctrl.NewEmu(r, false)}
	return nil
}

// Build resets the box for cfg under pol. HP apps start in CLOS 0 (a
// grouped DICER's Setup moves them into their groups) and BEs share the
// last CLOS id. A grouped box plans its own grouped DICER over the HP
// apps' live specs and pol must be nil; otherwise pol runs on the
// two-CLOS split, or the box's own DICER when pol is nil. Build clears
// Rec and OnPeriod and resets Sys to Emu.
func (b *Box) Build(cfg Config, pol policy.Policy) error {
	grouped, nclos := cfg.Grouped(), 2
	if grouped {
		nclos = cfg.CLOSBudget
	}
	if err := b.Runner.Reset(nclos); err != nil {
		return err
	}
	for i, hp := range cfg.HPs {
		if err := b.Runner.Attach(i, policy.HPClos, hp.Profile); err != nil {
			return err
		}
	}
	for i, be := range cfg.BEs {
		if err := b.Runner.Attach(len(cfg.HPs)+i, nclos-1, be); err != nil {
			return err
		}
	}
	b.Sys, b.Meter, b.Grouped, b.Rec, b.OnPeriod = b.Emu, nil, nil, nil, nil
	b.hints, b.steps = cfg.UsePhaseHints, cfg.StepsPerPeriod
	b.dt = cfg.PeriodSec / float64(cfg.StepsPerPeriod)

	var err error
	switch {
	case grouped:
		specs := make([]cluster.AppSpec, len(cfg.HPs))
		for i, hp := range cfg.HPs {
			specs[i].SLO = hp.SLO
		}
		cluster.Refresh(specs, b.Runner, b.hints)
		if b.Grouped, err = core.NewMulti(core.MultiConfig{
			Group:          cfg.DICER,
			WayBytes:       b.Runner.Machine().WaysBytes(1),
			CLOSBudget:     cfg.CLOSBudget,
			Grouping:       cfg.Grouping,
			ReclusterEvery: cfg.ReclusterEvery,
			UsePhaseHints:  cfg.UsePhaseHints,
		}, specs); err != nil {
			return err
		}
		pol = b.Grouped
	case pol == nil:
		if pol, err = core.New(cfg.DICER); err != nil {
			return err
		}
	}
	b.Policy = pol
	return nil
}

// Start runs the policy's Setup on Sys, then baselines the meter exactly
// where a fresh one would start: after attach and Setup, before the
// first step. Emu keeps its one meter across builds; a wrapped Sys gets
// its own. The meter is baselined even when Setup fails, so a caller
// that tolerates the error can go on.
func (b *Box) Start() error {
	err := b.Policy.Setup(b.Sys)
	switch {
	case b.Sys != resctrl.System(b.Emu):
		b.Meter = resctrl.NewMeter(b.Sys)
		return err
	case b.emuMeter == nil:
		b.emuMeter = resctrl.NewMeter(b.Emu)
	default:
		b.emuMeter.Rebaseline()
	}
	b.Meter = b.emuMeter
	return err
}

// Period runs one monitoring period: step the simulator StepsPerPeriod
// times, sample the meter, hand the reading to OnPeriod, refresh a
// grouped controller's specs from the apps' current phases, let the
// policy observe, and record. It returns the reading, valid until the
// next period, and the policy's error.
func (b *Box) Period(period int) (resctrl.Period, error) {
	for s := 0; s < b.steps; s++ {
		b.Runner.Step(b.dt)
	}
	p := b.Meter.Sample()
	if b.OnPeriod != nil {
		b.OnPeriod(period, p)
	}
	if b.Grouped != nil {
		cluster.Refresh(b.Grouped.Specs(), b.Runner, b.hints)
	}
	err := b.Policy.Observe(b.Sys, p)
	if b.Rec != nil {
		b.Rec.EndPeriod(period, p, b.Sys, err)
	}
	return p, err
}
