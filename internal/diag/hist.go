// Package diag is the diagnostic layer on top of the observability
// substrate (internal/obs): streaming percentile histograms, an SLO
// burn-rate alerter, the one digest of each record stream behind the
// serve modes' /metrics, and an offline trace analytics engine that
// runs the very same code over recorded JSONL traces.
//
// The paper's whole argument is an SLO argument — DICER must hold HP
// slowdown under a target while raising effective utilisation — and
// point-in-time gauges cannot answer the operator's questions: is the
// error budget burning, why did the controller shrink, which node is
// the outlier? This package answers them three ways:
//
//   - Histogram: fixed log-bucket streaming percentiles (zero-alloc
//     Observe) for HP slowdown, fleet EFU, link utilisation and
//     decision latency, exported as Prometheus histogram + quantile
//     series.
//   - Alerter: multi-window error-budget burn-rate rules over the
//     slowdown target, with hysteresis, per node and fleet-aggregate.
//   - Monitor / FleetMonitor / Analyze: the same counter, histogram
//     and alerter pipeline fed live (as an obs sink or a fleet period
//     callback) or offline from a recorded trace — so an offline
//     analysis of a trace is bit-equal to what the live endpoints
//     reported during the run.
package diag

import "math"

// Histogram is a streaming histogram over fixed logarithmic buckets:
// bucket i spans (lo·growth^(i-1), lo·growth^i], with one underflow and
// one overflow bucket at the ends. Observe is O(1) and allocation-free
// (the bench-smoke guard TestHistogramAllocFree pins this down), so a
// histogram can sit on the monitoring hot path for the lifetime of a
// deployment. Quantiles interpolate geometrically inside the bucket,
// which keeps them deterministic for deterministic inputs.
//
// A Histogram is not safe for concurrent use; the monitors lock around
// it.
type Histogram struct {
	lo     float64
	logLo  float64
	scale  float64 // buckets per unit of log10
	counts []uint64

	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewHistogram builds a histogram spanning [lo, hi] with perDecade
// buckets per factor-of-ten. lo and hi must be positive with lo < hi.
func NewHistogram(lo, hi float64, perDecade int) *Histogram {
	if !(lo > 0) || !(hi > lo) || perDecade < 1 {
		panic("diag: bad histogram geometry")
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades*float64(perDecade))) + 2 // + under/overflow
	return &Histogram{
		lo:     lo,
		logLo:  math.Log10(lo),
		scale:  float64(perDecade),
		counts: make([]uint64, n),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// bucket maps a value to its bucket index.
func (h *Histogram) bucket(v float64) int {
	if !(v > h.lo) { // includes NaN, negatives, underflow
		return 0
	}
	i := 1 + int((math.Log10(v)-h.logLo)*h.scale)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// upper returns the inclusive upper bound of bucket i (the last bucket
// is unbounded).
func (h *Histogram) upper(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.lo * math.Pow(10, float64(i)/h.scale)
}

// Observe records one value. Zero allocations.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolating
// geometrically within the containing bucket and clamping to the exact
// observed min/max so q=0 and q=1 are exact. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := h.lo
			if i > 1 {
				lo = h.upper(i - 1)
			}
			up := h.upper(i)
			if math.IsInf(up, 1) || i == 0 {
				// Unbounded (or underflow) bucket: no geometry to
				// interpolate over; clamp to the observed extreme.
				if i == 0 {
					return math.Min(h.lo, h.max)
				}
				return h.max
			}
			frac := (rank - cum) / float64(c)
			v := lo * math.Pow(up/lo, frac)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// Summary is a histogram's fixed-quantile digest, the unit the analyze
// report prints and serialises.
type Summary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summarise digests the histogram under the given metric name.
func (h *Histogram) Summarise(name string) Summary {
	return Summary{
		Name:  name,
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
