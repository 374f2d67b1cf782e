// Package invariant machine-checks the safety properties the DICER
// controller must uphold no matter what the monitoring substrate reports
// — the properties the hand-written robustness tests in internal/core
// probe pointwise, promoted to a checker that runs after every monitoring
// period. It is used three ways:
//
//   - as a test helper: the chaos soak harness runs every cell behind
//     the Guard and fails the run on the first violation;
//   - as a runtime guard behind a config flag: Guard wraps any policy
//     and turns a violation into an error from Observe, so a production
//     deployment halts instead of installing an unsafe allocation;
//   - from the CLI: dicer-sim -guard.
//
// Checked invariants, for a controller with any number of HP groups (on
// the two-CLOS split, the one group is the HP partition):
//
//   - MaskLegal: every installed HP-group and BE CBM is non-zero,
//     contiguous and within the machine's way count (the CAT hardware
//     rules).
//   - HPBounds: each group's enforced way count stays within
//     [MinHPWays, budget]: Ways-MinBEWays for a single group, the plan's
//     ways budget for each of several.
//   - StateValid: every group's sampling state machine is in a known
//     state.
//   - PeriodMonotone: the controller's period counter advances by
//     exactly one per observation (monotone bookkeeping).
//   - Consistency (quiescent only): the installed masks equal the
//     controller's intent — group masks stacked from the top of the LLC
//     in group order, the BE mask the low-order remainder — so they are
//     disjoint and cover the cache. Under actuation faults (rejected or
//     delayed writes) the installed masks lag the intent, so this is
//     asserted only when the caller reports no writes in flight.
package invariant

import (
	"errors"
	"fmt"
	"strings"

	"dicer/internal/cache"
	"dicer/internal/core"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Violation is one broken invariant.
type Violation struct {
	Name   string // invariant identifier, e.g. "MaskLegal"
	Detail string
}

func (v Violation) String() string { return v.Name + ": " + v.Detail }

// Error aggregates the violations found by one Check call.
type Error struct {
	Period     int // controller period at the time of the check
	Violations []Violation
}

// Error implements the error interface.
func (e *Error) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("invariant: period %d: %s", e.Period, strings.Join(parts, "; "))
}

// Checker validates controller safety properties. The zero value is not
// usable; construct with NewChecker. A Checker is stateful (it tracks the
// period counter for the monotone-bookkeeping check) and belongs to one
// controller run.
type Checker struct {
	cfg        core.Config
	lastPeriod int
	havePeriod bool
	checks     int
	violations int
}

// NewChecker builds a Checker for a controller using cfg (the bounds
// MinHPWays/MinBEWays come from there).
func NewChecker(cfg core.Config) *Checker {
	return &Checker{cfg: cfg}
}

// Checks returns the number of Check calls made.
func (k *Checker) Checks() int { return k.checks }

// validStates are the controller state names the sampling state machine
// may report.
var validStates = map[string]bool{
	"optimise": true,
	"sampling": true,
	"validate": true,
}

// Check validates all invariants after one monitoring period. ctl may be
// nil when guarding a non-DICER policy, in which case only the
// system-level mask invariants of the two-CLOS split are checked.
// quiescent reports that no actuation writes are in flight (always true
// without a chaos layer); the intent/installed consistency invariant is
// skipped when false. It returns nil or an *Error listing every
// violation found.
func (k *Checker) Check(sys resctrl.System, ctl *core.Controller, quiescent bool) error {
	k.checks++
	var vs []Violation
	ways := sys.NumWays()
	groups, beClos := 1, policy.BEClos
	if ctl != nil {
		groups, beClos = ctl.NumGroups(), ctl.BEClos()
	}
	// at prefixes a group's violation text when there are several, so a
	// single group reads exactly as the two-CLOS HP partition.
	at := func(gi int) string {
		if groups == 1 {
			return ""
		}
		return fmt.Sprintf("group %d ", gi)
	}

	// MaskLegal: the masks actually installed on the hardware.
	for i := 0; i <= groups; i++ {
		clos := i
		if i == groups {
			clos = beClos
		}
		mask := sys.CBM(clos)
		if mask == 0 {
			vs = append(vs, Violation{"MaskLegal",
				fmt.Sprintf("clos %d has an empty capacity mask", clos)})
			continue
		}
		if err := cache.CheckMask(mask, ways); err != nil {
			vs = append(vs, Violation{"MaskLegal",
				fmt.Sprintf("clos %d mask %#x: %v", clos, mask, err)})
		}
	}

	period := 0
	if ctl != nil {
		period = ctl.Period()

		// HPBounds (the allocation the controller believes it enforces)
		// and StateValid, per group.
		inBounds := true
		for gi := 0; gi < groups; gi++ {
			w, lo, hi := ctl.GroupWays(gi), k.cfg.MinHPWays, ctl.GroupBudget(gi)
			if groups == 1 {
				hi = ways - k.cfg.MinBEWays
			}
			if w < lo || w > hi {
				inBounds = false
				vs = append(vs, Violation{"HPBounds",
					fmt.Sprintf("%sHP ways %d outside [%d,%d]", at(gi), w, lo, hi)})
			}
			if st := ctl.GroupState(gi); !validStates[st] {
				vs = append(vs, Violation{"StateValid",
					fmt.Sprintf("%sunknown controller state %q", at(gi), st)})
			}
		}

		// PeriodMonotone: exactly one observation per period.
		if k.havePeriod && period != k.lastPeriod+1 {
			vs = append(vs, Violation{"PeriodMonotone",
				fmt.Sprintf("period went %d -> %d", k.lastPeriod, period)})
		}
		k.lastPeriod = period
		k.havePeriod = true

		// Consistency: installed masks match intent when no writes are
		// in flight. The intended layout is disjoint and covers the
		// cache by construction, so matching it implies both.
		if quiescent && inBounds {
			top := ways
			for gi := 0; gi < groups; gi++ {
				w := ctl.GroupWays(gi)
				if got, want := sys.CBM(gi), cache.ContiguousMask(top-w, w); got != want {
					vs = append(vs, Violation{"Consistency",
						fmt.Sprintf("%sHP mask %#x, intent %#x (hp ways %d)", at(gi), got, want, w)})
				}
				top -= w
			}
			if got, want := sys.CBM(beClos), cache.ContiguousMask(0, top); got != want {
				vs = append(vs, Violation{"Consistency",
					fmt.Sprintf("BE mask %#x, intent %#x (hp ways %d)", got, want, ways-top)})
			}
		}
	}

	if len(vs) == 0 {
		return nil
	}
	k.violations += len(vs)
	return &Error{Period: period, Violations: vs}
}

// Guard wraps a policy with a per-period invariant check — the runtime
// guard. After every successful Observe the checker runs; a violation
// surfaces as an error from Observe, halting the run before another
// period executes under an unsafe allocation.
type Guard struct {
	inner   policy.Policy
	ctl     *core.Controller // nil for non-DICER policies
	checker *Checker
}

// NewGuard wraps inner. The controller-level invariants activate when
// inner is (or wraps) a DICER controller; otherwise only mask legality is
// guarded. cfg supplies the HP bounds; pass the controller's own config.
func NewGuard(inner policy.Policy, cfg core.Config) *Guard {
	return &Guard{inner: inner, ctl: core.ControllerOf(inner), checker: NewChecker(cfg)}
}

// Wrap guards p using its own controller configuration when p is (or
// wraps) a DICER controller, falling back to the default bounds for
// policies without one — the convenient constructor for callers that hold
// only a policy.Policy.
func Wrap(p policy.Policy) *Guard {
	cfg := core.DefaultConfig()
	if ctl := core.ControllerOf(p); ctl != nil {
		cfg = ctl.Config()
	}
	return NewGuard(p, cfg)
}

// Checker exposes the underlying checker (for stats).
func (g *Guard) Checker() *Checker { return g.checker }

// Controller exposes the guarded DICER controller (nil for non-DICER
// policies), so core.ControllerOf sees through the guard and the
// observability recorder can trace a guarded run.
func (g *Guard) Controller() *core.Controller { return g.ctl }

// Name implements policy.Policy.
func (g *Guard) Name() string { return g.inner.Name() + "+guard" }

// Setup implements policy.Policy. The invariant check runs even when the
// inner Setup errors — a fault-injecting substrate can reject the initial
// schemata write, and the installed masks must stay legal regardless.
// Both errors are reported via errors.Join, so errors.Is/As still match
// either one.
func (g *Guard) Setup(sys resctrl.System) error {
	return errors.Join(g.inner.Setup(sys), g.check(sys))
}

// Observe implements policy.Policy. As with Setup, the check runs every
// period even if the inner policy's actuation failed: the checker counts
// on exactly one check per observation for its monotone-bookkeeping
// invariant, and a period with a rejected write is precisely when the
// installed masks deserve scrutiny.
func (g *Guard) Observe(sys resctrl.System, p resctrl.Period) error {
	return errors.Join(g.inner.Observe(sys, p), g.check(sys))
}

// Recheck validates the settled state once more, outside the period
// sequence: after a fault-injecting substrate drained its delayed
// writes, the installed masks must equal the controller's intent. The
// period-monotone invariant does not apply to a re-check and is skipped.
func (g *Guard) Recheck(sys resctrl.System) error {
	g.checker.havePeriod = false
	return g.check(sys)
}

func (g *Guard) check(sys resctrl.System) error {
	// A fault-injecting substrate (internal/chaos) reports whether
	// actuation has settled; without one, writes are synchronous and
	// the system is always quiescent.
	quiescent := true
	if q, ok := sys.(interface{ ActuationClean() bool }); ok {
		quiescent = q.ActuationClean()
	}
	return g.checker.Check(sys, g.ctl, quiescent)
}

var _ policy.Policy = (*Guard)(nil)
