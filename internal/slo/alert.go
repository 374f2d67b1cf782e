// Package slo implements multi-window SLO burn-rate alerting. It is a
// leaf package — no internal dependencies — so both the diagnostics
// layer (per-node and fleet-aggregate monitors, live and offline) and
// the fleet layer's migration engine can evaluate the same burn-rate
// rule without an import cycle: diag imports fleet for trace types,
// and fleet needs the alerter to drive SLO-burn migration, so the
// alerter lives below both. There is one rule: every alerter outside
// this package's tests is built from DefaultAlertConfig.
package slo

import "fmt"

// BurnWindow is one window of a multi-window burn-rate rule: the
// violation fraction over the most recent Periods monitoring periods,
// divided by the error budget, must reach Burn for the window to vote
// to fire. Pairing a short window (fast detection) with a long one
// (sustained burn) is the standard defence against paging on blips —
// the approach SLO-attainment systems use instead of point samples.
type BurnWindow struct {
	Periods int     `json:"periods"`
	Burn    float64 `json:"burn"`
}

// AlertConfig parameterises the SLO burn-rate alerter.
type AlertConfig struct {
	// Budget is the error budget: the fraction of periods allowed to
	// violate the slowdown target (e.g. 0.1 = 10% of periods may miss
	// SLO). A window's burn rate is violationFraction / Budget.
	Budget float64 `json:"budget"`
	// Windows are the burn-rate rules; the alert fires only when every
	// window's burn rate is at or above its threshold. Windows[0] must
	// be the shortest — it also drives clearing.
	Windows []BurnWindow `json:"windows"`
	// ClearFraction scales the short window's firing threshold into the
	// clearing threshold: the alert clears only after the short window's
	// burn rate stays below ClearFraction × Windows[0].Burn for
	// ClearHold consecutive periods (hysteresis against flapping).
	ClearFraction float64 `json:"clear_fraction"`
	ClearHold     int     `json:"clear_hold"`
}

// DefaultAlertConfig returns the stock rule: 10% error budget, a
// 5-period fast window at 2× burn plus a 60-period slow window at 1×,
// clearing after 3 consecutive periods below half the fast threshold.
func DefaultAlertConfig() AlertConfig {
	return AlertConfig{
		Budget: 0.10,
		Windows: []BurnWindow{
			{Periods: 5, Burn: 2},
			{Periods: 60, Burn: 1},
		},
		ClearFraction: 0.5,
		ClearHold:     3,
	}
}

// Validate reports configuration errors.
func (c AlertConfig) Validate() error {
	if c.Budget <= 0 || c.Budget > 1 {
		return fmt.Errorf("slo: alert budget %g outside (0,1]", c.Budget)
	}
	if len(c.Windows) == 0 {
		return fmt.Errorf("slo: alert needs at least one burn window")
	}
	prev := 0
	for _, w := range c.Windows {
		if w.Periods < 1 {
			return fmt.Errorf("slo: burn window of %d periods", w.Periods)
		}
		if w.Burn <= 0 {
			return fmt.Errorf("slo: non-positive burn threshold %g", w.Burn)
		}
		if w.Periods < prev {
			return fmt.Errorf("slo: burn windows must be ordered short to long")
		}
		prev = w.Periods
	}
	if c.ClearFraction <= 0 || c.ClearFraction > 1 {
		return fmt.Errorf("slo: clear fraction %g outside (0,1]", c.ClearFraction)
	}
	if c.ClearHold < 1 {
		return fmt.Errorf("slo: clear hold %d < 1", c.ClearHold)
	}
	return nil
}

// AlertEvent is one alert state transition.
type AlertEvent struct {
	// Period is the monitoring period the transition happened at.
	Period int `json:"period"`
	// Firing is the new state (true = fired, false = cleared).
	Firing bool `json:"firing"`
	// ShortBurn and LongBurn are the shortest and longest windows' burn
	// rates at the transition.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// AlertState is an alerter snapshot, the unit /alerts serves.
type AlertState struct {
	Firing     bool      `json:"firing"`
	Since      int       `json:"since,omitempty"` // period of the last transition
	Burns      []float64 `json:"burns"`           // per window, short to long
	Periods    int       `json:"periods"`
	Violations float64   `json:"violations"` // Σ violation fractions observed
	Fires      int       `json:"fires"`      // lifetime fire transitions
}

// burnRing is a fixed ring of violation fractions with a running sum.
type burnRing struct {
	buf []float64
	sum float64
	pos int
}

func (r *burnRing) push(v float64) {
	r.sum += v - r.buf[r.pos]
	r.buf[r.pos] = v
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
	}
}

// fraction returns the mean violation fraction over the window. The
// divisor is the full window size even before it fills: periods not yet
// seen count as clean, so a run's first violating period cannot fire a
// long window on its own.
func (r *burnRing) fraction() float64 {
	return r.sum / float64(len(r.buf))
}

// Alerter evaluates a multi-window burn-rate rule over a stream of
// per-period violation fractions (0 or 1 for a single HP, the violating
// node fraction for a fleet aggregate). Step is O(windows) and
// allocation-free in steady state (BenchmarkAlerterStep pins this), so
// one alerter per node costs nothing on the monitoring path.
//
// An Alerter is not safe for concurrent use; the monitors lock.
type Alerter struct {
	cfg   AlertConfig
	rings []burnRing
	burns []float64

	period  int
	firing  bool
	since   int
	calm    int // consecutive clearing-eligible periods while firing
	violSum float64
	fires   int
}

// NewAlerter builds an alerter; invalid configurations panic (configs
// come from code or validated flags, not user data files).
func NewAlerter(cfg AlertConfig) *Alerter {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Alerter{cfg: cfg, burns: make([]float64, len(cfg.Windows))}
	a.rings = make([]burnRing, len(cfg.Windows))
	for i, w := range cfg.Windows {
		a.rings[i].buf = make([]float64, w.Periods)
	}
	return a
}

// Config returns the alerter's configuration.
func (a *Alerter) Config() AlertConfig { return a.cfg }

// Firing reports whether the alert is currently firing.
func (a *Alerter) Firing() bool { return a.firing }

// Step feeds one period's violation fraction (clamped to [0,1]) and
// reports whether the alert transitioned, with the transition event.
func (a *Alerter) Step(violFrac float64) (AlertEvent, bool) {
	if violFrac < 0 {
		violFrac = 0
	} else if violFrac > 1 {
		violFrac = 1
	}
	p := a.period
	a.period++
	a.violSum += violFrac

	fireVote := true
	for i := range a.rings {
		a.rings[i].push(violFrac)
		burn := a.rings[i].fraction() / a.cfg.Budget
		a.burns[i] = burn
		if burn < a.cfg.Windows[i].Burn {
			fireVote = false
		}
	}

	switch {
	case !a.firing && fireVote:
		a.firing = true
		a.since = p
		a.calm = 0
		a.fires++
		return a.transition(p), true
	case a.firing:
		if a.burns[0] < a.cfg.ClearFraction*a.cfg.Windows[0].Burn {
			a.calm++
		} else {
			a.calm = 0
		}
		if a.calm >= a.cfg.ClearHold {
			a.firing = false
			a.since = p
			a.calm = 0
			return a.transition(p), true
		}
	}
	return AlertEvent{}, false
}

func (a *Alerter) transition(period int) AlertEvent {
	return AlertEvent{
		Period:    period,
		Firing:    a.firing,
		ShortBurn: a.burns[0],
		LongBurn:  a.burns[len(a.burns)-1],
	}
}

// Burns returns the current burn rate per window, short to long. The
// slice is reused across Steps; callers that retain it must copy.
func (a *Alerter) Burns() []float64 { return a.burns }

// State snapshots the alerter for serving. Allocates; not for the hot
// path.
func (a *Alerter) State() AlertState {
	return AlertState{
		Firing:     a.firing,
		Since:      a.since,
		Burns:      append([]float64(nil), a.burns...),
		Periods:    a.period,
		Violations: a.violSum,
		Fires:      a.fires,
	}
}
