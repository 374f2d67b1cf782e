// Package mrc builds and evaluates miss-ratio curves (MRCs): the fraction
// of LLC accesses that miss as a function of the cache capacity available
// to the application.
//
// Two constructions are provided:
//
//   - Analytic curves (Curve) built from a working-set mixture — a list of
//     (size, access-fraction) components plus a streaming fraction that
//     never hits. Under LRU, a component is fully resident once the
//     capacity reaches its stack position, which yields the classic
//     piecewise-linear concave miss curve. These drive the fast
//     system-level simulator in internal/sim.
//
//   - Empirical curves (Empirical) measured by replaying a synthetic trace
//     through the internal/cache simulator at every way count. Tests use
//     these to validate that the analytic shapes match true LRU behaviour.
//
// The DICER paper's key phenomena are functions of MRC shape: cache-
// sensitive applications have steep curves (many ways help), streaming
// applications have flat high curves (no amount of cache helps, bandwidth
// is consumed instead), and compute-bound applications have flat low ones.
package mrc

import (
	"fmt"
	"sort"

	"dicer/internal/cache"
	"dicer/internal/trace"
)

// Component is one working-set of an application: Bytes of data receiving
// Frac of all LLC accesses. Components are kept hottest-first; hotter
// components occupy cache before colder ones under LRU.
type Component struct {
	Bytes float64 // footprint of this working set
	Frac  float64 // fraction of accesses directed at it
}

// Curve is an analytic miss-ratio curve built from a working-set mixture.
// The zero value is a curve that never misses.
type Curve struct {
	comps  []Component // sorted by descending access density (Frac/Bytes)
	stream float64     // fraction of accesses that can never hit
}

// NewCurve builds a Curve. streamFrac plus the component fractions must not
// exceed 1 (any remainder is treated as always-hitting register/L1 locality
// that the LLC never sees missing). Components with non-positive size or
// fraction are rejected.
func NewCurve(streamFrac float64, comps ...Component) (Curve, error) {
	if streamFrac < 0 || streamFrac > 1 {
		return Curve{}, fmt.Errorf("mrc: stream fraction %g outside [0,1]", streamFrac)
	}
	total := streamFrac
	cs := make([]Component, len(comps))
	copy(cs, comps)
	for i, c := range cs {
		if c.Bytes <= 0 {
			return Curve{}, fmt.Errorf("mrc: component %d has non-positive size %g", i, c.Bytes)
		}
		if c.Frac < 0 {
			return Curve{}, fmt.Errorf("mrc: component %d has negative fraction %g", i, c.Frac)
		}
		total += c.Frac
	}
	if total > 1+1e-9 {
		return Curve{}, fmt.Errorf("mrc: fractions sum to %g > 1", total)
	}
	// Hottest first: highest access density claims cache first under LRU.
	sort.Slice(cs, func(i, j int) bool {
		return cs[i].Frac/cs[i].Bytes > cs[j].Frac/cs[j].Bytes
	})
	return Curve{comps: cs, stream: streamFrac}, nil
}

// MustCurve is NewCurve that panics on error; for use in static catalogs.
func MustCurve(streamFrac float64, comps ...Component) Curve {
	c, err := NewCurve(streamFrac, comps...)
	if err != nil {
		panic(err)
	}
	return c
}

// CoverageExponent shapes how a partially resident component hits: the
// hit fraction is coverage^CoverageExponent. 1 would be the linear
// fractional-LRU model; real LRU miss curves are convex near the
// working-set knee (a loop that almost fits still thrashes), and an
// exponent of 2 reproduces that knee. The knee is what stops DICER's
// stability-driven shrinking at the right allocation: removing the first
// way below the working set costs visibly more than the stability band.
const CoverageExponent = 2

// MissRatio returns the fraction of LLC accesses that miss when the
// application has capacity bytes of cache available. The curve is
// non-increasing in capacity and bounded by [stream, stream+Σfrac].
func (c Curve) MissRatio(capacityBytes float64) float64 {
	miss := c.stream
	remaining := capacityBytes
	if remaining < 0 {
		remaining = 0
	}
	for _, comp := range c.comps {
		if remaining <= 0 {
			miss += comp.Frac
			continue
		}
		covered := remaining / comp.Bytes
		if covered >= 1 {
			remaining -= comp.Bytes
			continue // fully resident: no misses from this component
		}
		hit := covered
		for i := 1; i < CoverageExponent; i++ {
			hit *= covered
		}
		miss += comp.Frac * (1 - hit)
		remaining = 0
	}
	return miss
}

// Footprint returns the total bytes of all cacheable components — the
// capacity beyond which extra cache cannot reduce misses.
func (c Curve) Footprint() float64 {
	var t float64
	for _, comp := range c.comps {
		t += comp.Bytes
	}
	return t
}

// StreamFraction returns the fraction of accesses that always miss.
func (c Curve) StreamFraction() float64 { return c.stream }

// OccupancyDemand returns the bytes the application would keep resident if
// offered capacityBytes: the prefix of its working sets that fits. This is
// what a CMT counter converges to for an isolated partition.
func (c Curve) OccupancyDemand(capacityBytes float64) float64 {
	remaining := capacityBytes
	var occ float64
	for _, comp := range c.comps {
		if remaining <= 0 {
			break
		}
		take := comp.Bytes
		if take > remaining {
			take = remaining
		}
		occ += take
		remaining -= take
	}
	// Streaming traffic churns through whatever is left of the partition.
	if c.stream > 0 {
		occ += remaining
	}
	return occ
}

// Empirical measures a miss-ratio curve by replaying a trace through the
// set-associative simulator at each way allocation from 1 to cfg.Ways.
// The trace is replayed twice per point — a warm-up pass to fill the cache
// and a measured pass — so compulsory misses do not distort the curve for
// looping workloads. Entry [w-1] of the result is the miss ratio with w ways.
func Empirical(cfg cache.Config, gen trace.Generator, accesses int) ([]float64, error) {
	if accesses <= 0 {
		return nil, fmt.Errorf("mrc: non-positive access count %d", accesses)
	}
	if cfg.Clos < 1 {
		cfg.Clos = 1
	}
	out := make([]float64, cfg.Ways)
	for w := 1; w <= cfg.Ways; w++ {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := c.SetMask(0, cache.ContiguousMask(0, w)); err != nil {
			return nil, err
		}
		gen.Reset()
		for i := 0; i < accesses; i++ { // warm-up pass
			c.Access(0, gen.Next())
		}
		c.ResetStats()
		gen.Reset()
		for i := 0; i < accesses; i++ { // measured pass
			c.Access(0, gen.Next())
		}
		out[w-1] = c.Stats(0).MissRatio()
	}
	return out, nil
}

// WaysToBytes converts a way count to bytes for a cache of totalBytes and
// ways associativity.
func WaysToBytes(ways int, totalBytes, totalWays int) float64 {
	return float64(ways) * float64(totalBytes) / float64(totalWays)
}
