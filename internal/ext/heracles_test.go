package ext

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

func TestNewHeraclesValidation(t *testing.T) {
	if _, err := NewHeracles(0, 0.9); err == nil {
		t.Fatal("expected error for zero reference IPC")
	}
	if _, err := NewHeracles(1, 0); err == nil {
		t.Fatal("expected error for zero SLO")
	}
	if _, err := NewHeracles(1, 1.5); err == nil {
		t.Fatal("expected error for SLO > 1")
	}
	h, err := NewHeracles(1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "Heracles" {
		t.Fatalf("name %q", h.Name())
	}
}

func TestHeraclesStartsConservative(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, false)
	h, err := NewHeracles(1.0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Setup(emu); err != nil {
		t.Fatal(err)
	}
	if h.curHP != 19 {
		t.Fatalf("initial HP ways %d", h.curHP)
	}
}

func TestHeraclesGrowsOnNegativeSlack(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, false)
	h, _ := NewHeracles(1.0, 0.95)
	if err := h.Setup(emu); err != nil {
		t.Fatal(err)
	}
	h.curHP = 10
	if err := policy.SplitWays(emu, 10); err != nil {
		t.Fatal(err)
	}
	// Mild violation (slack in (DisableSlack, 0)): grow by GrowWays.
	p := resctrl.Period{Cores: []resctrl.PeriodCore{{Core: 0, Clos: policy.HPClos, IPC: 0.90}}}
	if err := h.Observe(emu, p); err != nil {
		t.Fatal(err)
	}
	if h.curHP != 12 {
		t.Fatalf("HP ways %d after violation, want 12", h.curHP)
	}
	if len(h.parked) != 0 {
		t.Fatal("mild violation should not park BEs")
	}
}

func TestHeraclesParksOnDeepViolation(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, false)
	h, _ := NewHeracles(1.0, 0.95)
	if err := h.Setup(emu); err != nil {
		t.Fatal(err)
	}
	// Deep violation: slack < -10%.
	p := resctrl.Period{Cores: []resctrl.PeriodCore{{Core: 0, Clos: policy.HPClos, IPC: 0.5}}}
	if err := h.Observe(emu, p); err != nil {
		t.Fatal(err)
	}
	if len(h.parked) != 3 {
		t.Fatalf("parked %d BEs, want all 3", len(h.parked))
	}
	if h.curHP != 19 {
		t.Fatalf("HP ways %d after deep violation", h.curHP)
	}
	// Recovery: healthy slack unparks one BE per period.
	healthy := resctrl.Period{Cores: []resctrl.PeriodCore{{Core: 0, Clos: policy.HPClos, IPC: 1.05}}}
	if err := h.Observe(emu, healthy); err != nil {
		t.Fatal(err)
	}
	if len(h.parked) != 2 {
		t.Fatalf("parked %d after recovery period, want 2", len(h.parked))
	}
}

func TestHeraclesShrinksOnSlackSurplus(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, false)
	h, _ := NewHeracles(1.0, 0.80)
	if err := h.Setup(emu); err != nil {
		t.Fatal(err)
	}
	// IPC well above target: give a way to the BEs.
	p := resctrl.Period{Cores: []resctrl.PeriodCore{{Core: 0, Clos: policy.HPClos, IPC: 1.0}}}
	if err := h.Observe(emu, p); err != nil {
		t.Fatal(err)
	}
	if h.curHP != 18 {
		t.Fatalf("HP ways %d, want 18", h.curHP)
	}
}

func TestHeraclesEndToEndComparableToDICER(t *testing.T) {
	// On a cache-sensitive HP, Heracles (armed with the alone-IPC it
	// needs) must protect the SLO — and DICER should get close without
	// that information.
	hp := app.MustByName("omnetpp1")
	be := app.MustByName("gcc_base1")
	// The reference IPC: omnetpp alone at full LLC (analytic).
	ref := 1 / (hp.Phases[0].BaseCPI +
		hp.Phases[0].APKI*hp.Phases[0].Curve.MissRatio(25*mrcMB())/1000*180)

	run := func(pol policy.Policy) float64 {
		emu := build(t, hp, be, 9, false)
		drive(t, emu, pol, 40)
		return emu.Runner().Proc(0).IPC() / ref
	}
	h, err := NewHeracles(ref, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	heraclesNorm := run(h)
	dicerNorm := run(core.MustNew(core.DefaultConfig()))
	if heraclesNorm < 0.85 {
		t.Fatalf("Heracles with perfect information missed its target: %.3f", heraclesNorm)
	}
	if dicerNorm < heraclesNorm-0.15 {
		t.Fatalf("DICER (transparent) far behind Heracles: %.3f vs %.3f",
			dicerNorm, heraclesNorm)
	}
}

// mrcMB avoids an import-name collision with the app.MB constant.
func mrcMB() float64 { return float64(1 << 20) }
