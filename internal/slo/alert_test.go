package slo

import "testing"

// cfg55 is a small, easily-reasoned rule: 10% budget, 5-period fast
// window at 2x burn, 20-period slow window at 1x, clear after 2 calm
// periods below half the fast threshold.
func cfg55() AlertConfig {
	return AlertConfig{
		Budget: 0.10,
		Windows: []BurnWindow{
			{Periods: 5, Burn: 2},
			{Periods: 20, Burn: 1},
		},
		ClearFraction: 0.5,
		ClearHold:     2,
	}
}

func TestAlerterFires(t *testing.T) {
	a := NewAlerter(cfg55())
	// Sustained violations: short window needs fraction >= 0.2 (2 x 0.1),
	// long window >= 0.1. With violFrac=1 every period, the short window
	// saturates after 1 period (fraction 1.0 -> burn 10), the long after
	// 2 of 20 (fraction 0.1 -> burn 1). So firing at period 1.
	var fired *AlertEvent
	for p := 0; p < 10; p++ {
		if ev, changed := a.Step(1); changed {
			ev := ev
			fired = &ev
			break
		}
	}
	if fired == nil {
		t.Fatal("alert never fired under sustained violations")
	}
	if !fired.Firing {
		t.Fatal("first transition should be a fire")
	}
	if fired.Period != 1 {
		t.Errorf("fired at period %d, want 1 (long window needs 2/20)", fired.Period)
	}
	if fired.ShortBurn < 2 || fired.LongBurn < 1 {
		t.Errorf("burns at fire = %.2f/%.2f, want >= thresholds", fired.ShortBurn, fired.LongBurn)
	}
	if !a.Firing() {
		t.Fatal("alerter must report firing")
	}
	if a.State().Fires != 1 {
		t.Errorf("fires = %d, want 1", a.State().Fires)
	}
}

func TestAlerterBlipDoesNotFire(t *testing.T) {
	a := NewAlerter(cfg55())
	// One violation in 40 periods: short window spikes to burn 2 for a
	// few periods, but the long window stays under 1x — no fire.
	for p := 0; p < 40; p++ {
		frac := 0.0
		if p == 10 {
			frac = 1
		}
		if _, changed := a.Step(frac); changed {
			t.Fatalf("alert transitioned at period %d on a single blip", p)
		}
	}
	if a.Firing() {
		t.Fatal("firing after a blip")
	}
}

func TestAlerterClearsWithHysteresis(t *testing.T) {
	a := NewAlerter(cfg55())
	for p := 0; p < 8; p++ {
		a.Step(1)
	}
	if !a.Firing() {
		t.Fatal("not firing after sustained violations")
	}
	// Clean periods: the 5-period short window drains 1/5 per period
	// from fraction 1.0. Clearing needs burn < 0.5*2 = 1, i.e. fraction
	// < 0.1 — only when the window is fully drained (fraction 0) after 5
	// clean periods, then ClearHold=2 consecutive calm periods.
	cleared := -1
	for p := 8; p < 30; p++ {
		if ev, changed := a.Step(0); changed {
			if ev.Firing {
				t.Fatalf("unexpected re-fire at period %d", p)
			}
			cleared = p
			break
		}
	}
	if cleared < 0 {
		t.Fatal("alert never cleared after calm")
	}
	// Drain completes at period 12 (5 clean pushes); calm streak of 2
	// reaches its hold at period 13.
	if cleared != 13 {
		t.Errorf("cleared at period %d, want 13", cleared)
	}
	if a.Firing() {
		t.Fatal("still firing after clear")
	}

	// Flapping guard: a single violation during the calm streak resets
	// the hold counter.
	b := NewAlerter(cfg55())
	for p := 0; p < 8; p++ {
		b.Step(1)
	}
	seq := []float64{0, 0, 0, 0, 0, 1, 0} // drain, then a blip at the edge
	for _, f := range seq {
		b.Step(f)
	}
	if !b.Firing() {
		t.Fatal("blip during calm streak must keep the alert firing")
	}
}

func TestAlerterFleetFractions(t *testing.T) {
	a := NewAlerter(cfg55())
	// A quarter of the fleet violating forever: short burn 2.5, long
	// burn 2.5 — fires; then violation stops and it clears.
	for p := 0; p < 20; p++ {
		a.Step(0.25)
	}
	if !a.Firing() {
		t.Fatal("25% violating fleet must fire a 10% budget")
	}
	for p := 0; p < 10; p++ {
		a.Step(0)
	}
	if a.Firing() {
		t.Fatal("must clear after the fleet calms")
	}
}

func TestAlerterClamps(t *testing.T) {
	a := NewAlerter(cfg55())
	a.Step(-3)
	if a.State().Violations != 0 {
		t.Error("negative fraction must clamp to 0")
	}
	a.Step(7)
	if got := a.State().Violations; got != 1 {
		t.Errorf("overlarge fraction must clamp to 1, violations = %g", got)
	}
}

func TestAlertConfigValidate(t *testing.T) {
	good := DefaultAlertConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []AlertConfig{
		{Budget: 0, Windows: good.Windows, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 1.5, Windows: good.Windows, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 0.1, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 0.1, Windows: []BurnWindow{{Periods: 0, Burn: 1}}, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 0.1, Windows: []BurnWindow{{Periods: 5, Burn: 0}}, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 0.1, Windows: []BurnWindow{{Periods: 60, Burn: 1}, {Periods: 5, Burn: 2}}, ClearFraction: 0.5, ClearHold: 1},
		{Budget: 0.1, Windows: good.Windows, ClearFraction: 0, ClearHold: 1},
		{Budget: 0.1, Windows: good.Windows, ClearFraction: 0.5, ClearHold: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestAlerterStepAllocFree(t *testing.T) {
	a := NewAlerter(DefaultAlertConfig())
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		a.Step(float64(i % 2))
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkAlerterStep(b *testing.B) {
	a := NewAlerter(DefaultAlertConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Step(float64(i & 1))
	}
}
