package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dicer/internal/fleet"
	"dicer/internal/obs"
	"dicer/internal/slo"
)

// Counters are the substrate-level period tallies of a single-node run.
type Counters struct {
	Saturated   int `json:"saturated,omitempty"`
	GuardVetoes int `json:"guard_vetoes,omitempty"`
	Tolerated   int `json:"tolerated,omitempty"`
}

// AlertReport summarises a run through the burn-rate alerter.
type AlertReport struct {
	Config        slo.AlertConfig  `json:"config"`
	Violations    int              `json:"violations"`
	ViolationRate float64          `json:"violation_rate"`
	FiringPeriods int              `json:"firing_periods"`
	Fires         int              `json:"fires"`
	FinalFiring   bool             `json:"final_firing"`
	Events        []slo.AlertEvent `json:"events"`
	Timeline      []BurnPoint      `json:"timeline,omitempty"`
}

// Report is the analytics engine's output: one run's diagnostic digest,
// identical whether computed live or offline. It renders as text
// (Render) or JSON.
type Report struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Periods  int    `json:"periods"`

	SLO            float64 `json:"slo"`
	SlowdownTarget float64 `json:"slowdown_target,omitempty"`
	AloneIPC       float64 `json:"alone_ipc,omitempty"`
	// RefSource records where the alone-IPC reference came from:
	// "header" (recorded in the trace), "option" (caller override), or
	// "trace-peak" (fallback: the trace's best HP IPC).
	RefSource string `json:"ref_source,omitempty"`

	Metrics []Summary    `json:"metrics"`
	Alert   AlertReport  `json:"alert"`
	Causes  []CauseCount `json:"causes,omitempty"`
	Counter Counters     `json:"counters,omitempty"`
	Nodes   []NodeReport `json:"nodes,omitempty"`
	// Groups is the per-CLOS-group breakdown of a multi-HP
	// (dicer-trace/v2) trace; empty for v1 and fleet traces.
	Groups []GroupSummary `json:"groups,omitempty"`
}

// GroupSummary aggregates one CLOS group's slice of a v2 trace.
type GroupSummary struct {
	Group     int     `json:"group"`
	Periods   int     `json:"periods"`
	IPCMean   float64 `json:"ipc_mean"`
	BWMean    float64 `json:"bw_mean_gbps"`
	WaysMean  float64 `json:"ways_mean"`
	Decisions int     `json:"decisions"`
	// TopCause is the group's most frequent decision cause (ties break
	// lexicographically, so the report stays deterministic).
	TopCause string `json:"top_cause,omitempty"`
}

// AnalyzeOptions tune the offline engine. The zero value analyses with
// the trace header's references and the default alert rules.
type AnalyzeOptions struct {
	// SLO overrides the trace header's SLO target.
	SLO float64
	// AloneIPC overrides the header's alone-run reference (single-node
	// traces only).
	AloneIPC float64
	// Alert overrides the burn-rate rules; zero = DefaultAlertConfig.
	Alert slo.AlertConfig
}

// Analyze streams a recorded JSONL trace — single-node (dicer-trace/v1)
// or fleet (dicer-fleet/v1), sniffed from the header line — through the
// same Monitor/FleetMonitor pipeline the live endpoints use, and
// returns the run's diagnostic report. Determinism is by construction:
// identical records through identical code.
func Analyze(r io.Reader, opts AnalyzeOptions) (*Report, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("diag: read trace: %w", err)
	}
	line := raw
	if i := bytes.IndexByte(raw, '\n'); i >= 0 {
		line = raw[:i]
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, fmt.Errorf("diag: bad trace header: %w", err)
	}
	switch probe.Schema {
	case obs.Schema, obs.SchemaV2:
		return analyzeNode(bytes.NewReader(raw), opts)
	case fleet.TraceSchema:
		return analyzeFleet(bytes.NewReader(raw), opts)
	default:
		return nil, fmt.Errorf("diag: unknown trace schema %q", probe.Schema)
	}
}

// analyzeNode runs a single-node trace through a Monitor.
func analyzeNode(r io.Reader, opts AnalyzeOptions) (*Report, error) {
	hdr, recs, err := obs.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	refSource := "header"
	alone := hdr.HPAloneIPC
	if opts.AloneIPC > 0 {
		alone = opts.AloneIPC
		refSource = "option"
	}
	if alone == 0 {
		// Old traces carry no alone-run reference; the best HP IPC the
		// trace ever saw is the least-bad stand-in.
		for i := range recs {
			if recs[i].HPIPC > alone {
				alone = recs[i].HPIPC
			}
		}
		refSource = "trace-peak"
	}
	m := NewMonitor(MonitorConfig{
		SLO:      opts.SLO,
		AloneIPC: alone,
		Alert:    opts.Alert,
	})
	if err := m.Start(hdr); err != nil {
		return nil, err
	}
	for i := range recs {
		m.Emit(&recs[i])
	}
	rep := m.Report()
	rep.Schema = hdr.Schema
	rep.Policy = hdr.Policy
	rep.Workload = workloadName(hdr.HP, len(hdr.BEs))
	if len(hdr.HPs) > 0 {
		rep.Workload = workloadName(strings.Join(hdr.HPs, ","), len(hdr.BEs))
	}
	rep.RefSource = refSource
	rep.Groups = summariseGroups(recs)
	return rep, nil
}

// summariseGroups folds a v2 trace's per-CLOS-group records into one
// breakdown row per group. Returns nil on v1 traces (no group records).
func summariseGroups(recs []obs.Record) []GroupSummary {
	type acc struct {
		periods   int
		ipc, bw   float64
		ways      float64
		decisions int
		causes    map[string]int
	}
	var accs []*acc
	for i := range recs {
		for j := range recs[i].Groups {
			g := &recs[i].Groups[j]
			for g.Group >= len(accs) {
				accs = append(accs, &acc{causes: map[string]int{}})
			}
			a := accs[g.Group]
			a.periods++
			a.ipc += g.IPC
			a.bw += g.BWGbps
			a.ways += float64(g.Ways)
			a.decisions += len(g.Decisions)
			if g.Cause != "" {
				a.causes[g.Cause]++
			}
		}
	}
	var out []GroupSummary
	for id, a := range accs {
		if a.periods == 0 {
			continue
		}
		n := float64(a.periods)
		gs := GroupSummary{
			Group:     id,
			Periods:   a.periods,
			IPCMean:   a.ipc / n,
			BWMean:    a.bw / n,
			WaysMean:  a.ways / n,
			Decisions: a.decisions,
		}
		best := 0
		for _, cause := range sortedKeys(a.causes) {
			if c := a.causes[cause]; c > best {
				best, gs.TopCause = c, cause
			}
		}
		out = append(out, gs)
	}
	return out
}

// sortedKeys returns a map's keys sorted, for deterministic iteration.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// analyzeFleet runs a cluster trace through a FleetMonitor.
func analyzeFleet(r io.Reader, opts AnalyzeOptions) (*Report, error) {
	hdr, recs, err := fleet.ReadClusterTrace(r)
	if err != nil {
		return nil, err
	}
	m := NewFleetMonitor(FleetMonitorConfig{
		SLO:   opts.SLO,
		Alert: opts.Alert,
	})
	m.StartHeader(hdr)
	for i := range recs {
		m.ObserveRecord(&recs[i])
	}
	rep := m.Report()
	rep.Schema = hdr.Schema
	rep.Policy = hdr.Policy
	rep.Workload = fmt.Sprintf("%d nodes x %d cores, %.3g arrivals/period", hdr.Nodes, hdr.CoresPerNode, hdr.Arrivals.RatePerPeriod)
	rep.RefSource = "heartbeats"
	return rep, nil
}

// workloadName renders "hp + N BEs" the way the report header prints it.
func workloadName(hp string, bes int) string {
	if hp == "" {
		return ""
	}
	if bes == 0 {
		return hp
	}
	return fmt.Sprintf("%s + %d BEs", hp, bes)
}

// JSON renders the report as indented JSON (deterministic bytes).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Render writes the human-readable diagnostic report: run header,
// percentile table, burn-rate summary and timeline, decision-cause
// histogram, and (fleet) the per-node outlier table. The output is
// deterministic for a given report — the golden-file test pins it.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "trace   %s", r.Schema)
	if r.Policy != "" {
		fmt.Fprintf(w, "  policy=%s", r.Policy)
	}
	fmt.Fprintln(w)
	if r.Workload != "" {
		fmt.Fprintf(w, "workload %s\n", r.Workload)
	}
	fmt.Fprintf(w, "periods %d  slo %.3g", r.Periods, r.SLO)
	if r.SlowdownTarget > 0 {
		fmt.Fprintf(w, " (slowdown target %.3gx)", r.SlowdownTarget)
	}
	if r.AloneIPC > 0 {
		fmt.Fprintf(w, "  alone-ipc %.4g", r.AloneIPC)
	}
	if r.RefSource != "" {
		fmt.Fprintf(w, "  ref %s", r.RefSource)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-30s %8s %9s %9s %9s %9s %9s\n",
		"metric", "count", "mean", "p50", "p90", "p99", "max")
	for _, s := range r.Metrics {
		fmt.Fprintf(w, "%-30s %8d %9.4g %9.4g %9.4g %9.4g %9.4g\n",
			s.Name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
	}

	fmt.Fprintln(w)
	a := &r.Alert
	fmt.Fprintf(w, "slo-burn alert: budget %.3g, windows", a.Config.Budget)
	for _, bw := range a.Config.Windows {
		fmt.Fprintf(w, " %dp@%.3gx", bw.Periods, bw.Burn)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "violations %d/%d (rate %.4f)  fires %d  firing-periods %d  final %s\n",
		a.Violations, r.Periods, a.ViolationRate, a.Fires, a.FiringPeriods, firingWord(a.FinalFiring))
	for _, ev := range a.Events {
		fmt.Fprintf(w, "  period %4d  %-6s  short-burn %.3f  long-burn %.3f\n",
			ev.Period, firingWord(ev.Firing), ev.ShortBurn, ev.LongBurn)
	}
	renderTimeline(w, a.Timeline, a.Config)

	if len(r.Causes) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "decision causes:")
		for _, c := range r.Causes {
			fmt.Fprintf(w, "  %-22s %6d\n", c.Cause, c.Periods)
		}
	}
	if r.Counter != (Counters{}) {
		fmt.Fprintf(w, "saturated-periods %d  guard-vetoes %d  tolerated-faults %d\n",
			r.Counter.Saturated, r.Counter.GuardVetoes, r.Counter.Tolerated)
	}

	if len(r.Groups) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "CLOS group breakdown:")
		fmt.Fprintf(w, "%-6s %8s %9s %9s %9s %10s %s\n",
			"group", "periods", "ipc-mean", "bw-mean", "ways-mean", "decisions", "top-cause")
		for _, g := range r.Groups {
			fmt.Fprintf(w, "%-6d %8d %9.4g %9.4g %9.4g %10d %s\n",
				g.Group, g.Periods, g.IPCMean, g.BWMean, g.WaysMean, g.Decisions, g.TopCause)
		}
	}

	if len(r.Nodes) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-5s %8s %6s %8s %9s %9s %9s %6s %7s %s\n",
			"node", "periods", "viol", "rate", "sd-p50", "sd-p99", "sd-max", "fires", "firing", "flags")
		for _, n := range r.Nodes {
			var flags []string
			if n.Outlier {
				flags = append(flags, "OUTLIER")
			}
			if n.Lost {
				flags = append(flags, "lost")
			}
			fmt.Fprintf(w, "%-5d %8d %6d %8.4f %9.4g %9.4g %9.4g %6d %7d %s\n",
				n.Node, n.Periods, n.Violations, n.ViolationRate,
				n.SlowdownP50, n.SlowdownP99, n.SlowdownMax,
				n.Fires, n.FiringPeriods, strings.Join(flags, ","))
		}
	}
}

// RenderString is Render into a string.
func (r *Report) RenderString() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

func firingWord(f bool) string {
	if f {
		return "FIRING"
	}
	return "ok"
}

// renderTimeline draws the short-window burn rate as a sparkline-style
// strip: one character per period ('#' while the alert fires, '*' when
// the short window alone is past threshold, '.' when any budget burns,
// '_' when clean), chunked into rows of 60.
func renderTimeline(w io.Writer, tl []BurnPoint, cfg slo.AlertConfig) {
	if len(tl) == 0 {
		return
	}
	const row = 60
	fmt.Fprintln(w, "burn timeline (#=firing *=short-window hot .=burning _=idle):")
	for start := 0; start < len(tl); start += row {
		end := start + row
		if end > len(tl) {
			end = len(tl)
		}
		var b strings.Builder
		for _, p := range tl[start:end] {
			switch {
			case p.Firing:
				b.WriteByte('#')
			case len(cfg.Windows) > 0 && p.Short >= cfg.Windows[0].Burn:
				b.WriteByte('*')
			case p.Short > 0 || p.Long > 0:
				b.WriteByte('.')
			default:
				b.WriteByte('_')
			}
		}
		fmt.Fprintf(w, "  %4d %s\n", start, b.String())
	}
}
