// Package metrics implements the evaluation arithmetic of the DICER paper:
// slowdown, normalised IPC, Effective Utilisation (EFU, Eq. 1), SLO
// conformance (Eq. 5), the SLO-Effective-Utilisation Combined Index (SUCI,
// Eq. 4), plus the aggregate helpers (means, geometric mean, CDFs) used
// to render the figures.
package metrics

import (
	"math"
	"sort"
)

// Slowdown returns how much slower an application runs co-located than
// alone: IPC_alone / IPC. A value of 1 means unaffected; 2 means twice as
// slow. Both IPCs must be positive.
func Slowdown(ipcAlone, ipc float64) float64 {
	if ipc <= 0 || ipcAlone <= 0 {
		return math.Inf(1)
	}
	return ipcAlone / ipc
}

// NormIPC returns IPC / IPC_alone, the paper's QoS measure (its Figure 5
// y-axis). 1 means no degradation.
func NormIPC(ipc, ipcAlone float64) float64 {
	if ipcAlone <= 0 {
		return 0
	}
	return ipc / ipcAlone
}

// EFU computes the Effective Utilisation of Eq. 1: the harmonic mean of
// the normalised IPCs of all co-located applications,
//
//	EFU = n / Σ_i (IPC_alone,i / IPC_i)
//
// normIPCs holds IPC_i/IPC_alone,i for every application (HP first by
// convention, though the metric is symmetric). The result is in (0, 1]
// when every application has positive normalised IPC.
func EFU(normIPCs []float64) float64 {
	if len(normIPCs) == 0 {
		return 0
	}
	var denom float64
	for _, v := range normIPCs {
		if v <= 0 {
			return 0
		}
		denom += 1 / v
	}
	return float64(len(normIPCs)) / denom
}

// SLOAchieved evaluates Eq. 5's c_SLO: whether the HP's co-located IPC
// reaches the slo fraction (e.g. 0.9) of its alone IPC.
func SLOAchieved(hpIPC, hpIPCAlone, slo float64) bool {
	if hpIPCAlone <= 0 {
		return false
	}
	return hpIPC/hpIPCAlone >= slo
}

// SUCI computes Eq. 4: c_SLO * EFU^lambda. It is 0 when the SLO is missed
// (an SLA violation disqualifies any utilisation gains) and otherwise
// weighs utilisation by lambda: lambda > 1 favours utilisation, lambda < 1
// favours SLO conformance.
func SUCI(achieved bool, efu, lambda float64) float64 {
	if !achieved {
		return 0
	}
	if efu < 0 {
		efu = 0
	}
	return math.Pow(efu, lambda)
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to eps (the paper plots geometric means of SUCI values that can
// be exactly 0; clamping matches the usual practice of plotting those runs
// at the floor rather than annihilating the mean).
const geoMeanEps = 1e-4

// GeoMean returns the geometric mean of xs with zero values clamped to a
// small floor; it returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x < geoMeanEps {
			x = geoMeanEps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from a sample (copied and sorted).
func NewCDF(sample []float64) CDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// At returns P(X <= x) in [0, 1].
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) by nearest-rank.
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}
