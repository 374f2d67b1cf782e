package diag

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"dicer/internal/fleet"
)

// Prometheus text exposition: every series of the monitors' /metrics
// output (and TimedPolicy's latency histogram) is written through these
// helpers.

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	writeHeader(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
}

func writeCounter(w io.Writer, name, help string, v int) {
	writeHeader(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeLabelled renders a counter family with one label, values sorted.
func writeLabelled(w io.Writer, name, help, label string, vals map[string]int) {
	writeHeader(w, name, "counter", help)
	for _, k := range sortedKeys(vals) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}

// writeNodeGauge renders a per-node gauge family over heartbeats in
// node order.
func writeNodeGauge(w io.Writer, name, help string, hbs []fleet.Heartbeat, val func(*fleet.Heartbeat) float64) {
	writeHeader(w, name, "gauge", help)
	for i := range hbs {
		fmt.Fprintf(w, "%s{node=\"%d\"} %s\n", name, hbs[i].Node, formatValue(val(&hbs[i])))
	}
}

// promQuantiles are the quantile gauges every histogram exports.
var promQuantiles = []float64{0.5, 0.9, 0.99}

// WriteProm renders the histogram as a Prometheus histogram
// (cumulative le-labelled buckets ending at +Inf, _sum, _count) plus
// precomputed quantile gauges under <name>_quantile.
func (h *Histogram) WriteProm(w io.Writer, name, help string) {
	writeHeader(w, name, "histogram", help)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(h.upper(i)), cum)
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	writeHeader(w, name+"_quantile", "gauge", help+" (precomputed quantiles)")
	for _, q := range promQuantiles {
		fmt.Fprintf(w, "%s_quantile{quantile=%q} %s\n", name, formatFloat(q), formatValue(h.Quantile(q)))
	}
}

// formatValue renders a sample the way Prometheus clients do: integers
// without an exponent, everything else in Go's shortest exact form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatFloat renders a label value (bucket bound or quantile) in Go's
// shortest exact form, with +Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
