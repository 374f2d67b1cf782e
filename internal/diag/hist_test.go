package diag

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0.5, 50, 100)
	// 1..1000 uniform: quantiles should land near their exact ranks
	// even though most values overflow into the top buckets' geometry.
	rng := rand.New(rand.NewSource(1))
	var vals []float64
	for i := 0; i < 5000; i++ {
		v := 1 + 9*rng.Float64() // uniform [1,10)
		vals = append(vals, v)
		h.Observe(v)
	}
	if h.count != 5000 {
		t.Fatalf("count = %d, want 5000", h.count)
	}
	exact := func(q float64) float64 {
		s := append([]float64(nil), vals...)
		for i := range s { // insertion sort is fine at this size
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[int(q*float64(len(s)-1))]
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), exact(q)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("q%.2f = %g, exact %g (rel err %.3f)", q, got, want, rel)
		}
	}
	if got := h.Quantile(0); got != h.min {
		t.Errorf("q0 = %g, want min %g", got, h.min)
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("q1 = %g, want max %g", got, h.Max())
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(1, 100, 10)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// Underflow and overflow both count and stay within min/max clamps.
	h.Observe(0.001)
	h.Observe(1e6)
	if h.count != 2 {
		t.Fatalf("count = %d", h.count)
	}
	if q := h.Quantile(0.99); q > h.Max() || q < h.min {
		t.Errorf("quantile %g outside [min,max]=[%g,%g]", q, h.min, h.Max())
	}
	if h.Max() != 1e6 || h.min != 0.001 {
		t.Errorf("min/max = %g/%g", h.min, h.Max())
	}

	for _, bad := range []func(){
		func() { NewHistogram(0, 1, 10) },
		func() { NewHistogram(2, 1, 10) },
		func() { NewHistogram(1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry must panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramProm(t *testing.T) {
	h := NewHistogram(1, 10, 4)
	for _, v := range []float64{1, 2, 3, 5, 9, 20} {
		h.Observe(v)
	}
	var b strings.Builder
	h.WriteProm(&b, "test_metric", "help text")
	out := b.String()
	for _, want := range []string{
		"# TYPE test_metric histogram",
		`test_metric_bucket{le="+Inf"} 6`,
		"test_metric_sum 40",
		"test_metric_count 6",
		`test_metric_quantile{quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative (monotone non-decreasing).
	prev := uint64(0)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_metric_bucket") {
			continue
		}
		var n uint64
		if _, err := fmtSscan(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("non-cumulative bucket: %q after %d", line, prev)
		}
		prev = n
	}
}

// fmtSscan pulls the trailing integer off a prom sample line.
func fmtSscan(line string, n *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*n, err = parseUint(line[i+1:])
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotUint
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v, nil
}

var errNotUint = errorString("not an unsigned integer")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestHistogramAllocFree(t *testing.T) {
	h := newSlowdownHist()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(1.37)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newSlowdownHist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1 + float64(i%100)/25)
	}
}
