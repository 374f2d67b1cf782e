package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder with at least ten
// samples beyond it, and the value there. With fewer than twenty
// samples no percentile qualifies and it reports the maximum (pct 100).
func tail(xs []float64) (pct, v float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 100, quantile(xs, 1)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digest is a 64-bit FNV-1a hash over values, bit for bit.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= 1099511628211
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
	d.byte(0)
}

func (d *digest) bytes(b []byte) {
	for _, c := range b {
		d.byte(c)
	}
}

func (d *digest) sum() uint64 { return d.h }
