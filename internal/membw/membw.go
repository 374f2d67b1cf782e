// Package membw models the shared memory link of a multicore server: a
// finite-bandwidth resource whose effective access latency inflates as
// offered load approaches and exceeds capacity.
//
// The model captures the phenomenon at the heart of the DICER paper's Key
// Observation 2: squeezing best-effort applications into a single LLC way
// explodes their miss traffic, saturates the memory link, and inflates the
// latency of *every* memory access — including the high-priority
// application's — so a "generous" HP cache allocation can end up hurting HP.
//
// Latency inflation is a convex function of utilisation with a knee:
//
//	inflation(u) = 1                                  u <= knee
//	             = 1 + gamma * ((u-knee)/(1-knee))^2  u  > knee, capped
//
// Offered load itself depends on inflation (slower cores issue fewer
// misses), so the system simulator solves a fixed point; Solve implements
// that with a monotone bisection that is guaranteed to converge.
package membw

import "fmt"

// Link describes a memory link.
type Link struct {
	// CapacityGBps is the peak deliverable bandwidth in 10^9 bits per
	// second, matching the units of the paper's Table 1 (68.3 Gbps).
	CapacityGBps float64
	// Knee is the utilisation fraction beyond which queueing delay becomes
	// visible. Real DDR controllers show a knee around 65-80 % of peak.
	Knee float64
	// Gamma scales how fast latency grows past the knee.
	Gamma float64
	// MaxInflation caps the latency multiplier; a saturated link delivers
	// its traffic eventually, it does not deadlock.
	MaxInflation float64
}

// DefaultLink returns a link with the paper's 68.3 Gbps capacity and
// saturation behaviour tuned so that ~2x oversubscription roughly doubles
// memory latency, consistent with measured DDR4 loaded-latency curves.
func DefaultLink() Link {
	return Link{CapacityGBps: 68.3, Knee: 0.65, Gamma: 6, MaxInflation: 10}
}

// Validate reports configuration errors.
func (l Link) Validate() error {
	if l.CapacityGBps <= 0 {
		return fmt.Errorf("membw: non-positive capacity %g", l.CapacityGBps)
	}
	if l.Knee <= 0 || l.Knee >= 1 {
		return fmt.Errorf("membw: knee %g outside (0,1)", l.Knee)
	}
	if l.Gamma < 0 {
		return fmt.Errorf("membw: negative gamma %g", l.Gamma)
	}
	if l.MaxInflation < 1 {
		return fmt.Errorf("membw: max inflation %g < 1", l.MaxInflation)
	}
	return nil
}

// Inflation returns the memory-latency multiplier at utilisation u, where
// u is offered load divided by capacity (may exceed 1).
func (l Link) Inflation(u float64) float64 {
	if u <= l.Knee {
		return 1
	}
	x := (u - l.Knee) / (1 - l.Knee)
	f := 1 + l.Gamma*x*x
	if f > l.MaxInflation {
		return l.MaxInflation
	}
	return f
}

// Demand maps a latency-inflation factor to the total offered load (in
// GBps) the agents would generate under it. Implementations must be
// non-increasing in the inflation factor: slower memory means slower cores
// means less traffic.
type Demand func(inflation float64) (totalGBps float64)

// Solve finds the self-consistent utilisation point: a u such that
// demand(Inflation(u))/capacity == u. Because demand is non-increasing in
// inflation and Inflation is non-decreasing in u, g(u) = demand(...)/cap is
// non-increasing, so g has a unique fixed point which bisection brackets.
// It returns the equilibrium utilisation and inflation factor.
func (l Link) Solve(demand Demand) (u, inflation float64) {
	// Upper bracket: utilisation if latency never inflated.
	hi := demand(1) / l.CapacityGBps
	if hi <= l.Knee {
		return hi, 1 // below the knee there is nothing to solve
	}
	lo := demand(l.MaxInflation) / l.CapacityGBps
	if lo >= hi {
		// Demand insensitive to latency (e.g. fixed-rate agents): the
		// operating point is simply the uninflated demand.
		return hi, l.Inflation(hi)
	}
	// Bisect on u in [lo, hi] for the root of h(u) = g(u) - u, where
	// h(lo) >= 0 and h(hi) <= 0.
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		g := demand(l.Inflation(mid)) / l.CapacityGBps
		if g > mid {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9 {
			break
		}
	}
	u = (lo + hi) / 2
	return u, l.Inflation(u)
}

// BytesToGbps converts bytes transferred over seconds to 10^9 bits/second.
func BytesToGbps(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes * 8 / seconds / 1e9
}
