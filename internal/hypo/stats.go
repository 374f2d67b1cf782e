// Package hypo is a hypothesis-driven experiment harness with
// statistical rigor: a hypothesis is a declared, falsifiable claim —
// named configurations compared, a seed set, a metric, a direction and a
// minimum effect size — executed through the experiments.Suite / fleet
// machinery with per-seed replication, then judged with paired mean,
// stddev, Student-t confidence intervals and effect size into an
// explicit Confirmed / Refuted / Inconclusive status rendered as a
// FINDINGS-style report (markdown and JSON, byte-deterministic for a
// fixed seed set).
package hypo

import (
	"math"

	"dicer/internal/metrics"
)

// StdDev returns the sample standard deviation (n-1 denominator); 0 for
// fewer than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := metrics.Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// PairedDiffs returns treatment[i] - control[i]; the slices must be the
// same length (the per-seed pairing is what removes the between-seed
// variance from the comparison).
func PairedDiffs(treatment, control []float64) []float64 {
	n := len(treatment)
	if len(control) < n {
		n = len(control)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = treatment[i] - control[i]
	}
	return out
}

// CohenD returns the paired effect size d_z = mean(diffs)/stddev(diffs).
// It is +Inf/-Inf when the diffs have zero variance but a non-zero mean,
// and 0 when both are zero.
func CohenD(diffs []float64) float64 {
	m, sd := metrics.Mean(diffs), StdDev(diffs)
	if sd == 0 {
		if m > 0 {
			return math.Inf(1)
		}
		if m < 0 {
			return math.Inf(-1)
		}
		return 0
	}
	return m / sd
}

// TInterval returns the two-sided confidence interval for the mean of xs
// at the given confidence level (e.g. 0.95), using the Student-t
// distribution with len(xs)-1 degrees of freedom. With fewer than two
// values, or zero variance, the interval collapses to the point mean.
func TInterval(xs []float64, confidence float64) (lo, hi float64) {
	m := metrics.Mean(xs)
	if len(xs) < 2 {
		return m, m
	}
	sd := StdDev(xs)
	if sd == 0 {
		return m, m
	}
	t := TQuantile(0.5+confidence/2, float64(len(xs)-1))
	half := t * sd / math.Sqrt(float64(len(xs)))
	return m - half, m + half
}

// betacf evaluates the continued fraction for the regularized incomplete
// beta function (modified Lentz).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// regIncBeta returns the regularized incomplete beta function I_x(a, b).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	bt := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return bt * betacf(a, b, x) / a
	}
	return 1 - bt*betacf(b, a, 1-x)/b
}

// tCDF returns P(T <= t) for Student's t with nu degrees of freedom.
func tCDF(t, nu float64) float64 {
	if t == 0 {
		return 0.5
	}
	p := 0.5 * regIncBeta(nu/2, 0.5, nu/(nu+t*t))
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile of Student's t with nu degrees of
// freedom by bisection on tCDF — deterministic and accurate to well below
// any reporting precision.
func TQuantile(p, nu float64) float64 {
	if p == 0.5 {
		return 0
	}
	target := p
	if p < 0.5 {
		target = 1 - p
	}
	lo, hi := 0.0, 1.0
	for tCDF(hi, nu) < target && hi < 1e12 {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, nu) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	q := (lo + hi) / 2
	if p < 0.5 {
		return -q
	}
	return q
}
