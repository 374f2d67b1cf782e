// Command perfbench is the repository's benchmark. It runs one workload
// from one process and prints, as its last line, a JSON object with the
// operations attempted and failed and the workload's metrics:
//
//	bash perfbench/run.sh --workload paper-dicer --seed 1 --seconds 30 --trace 0
//
// The workloads are paper-static, paper-dicer, fleet-scale and fleet-ops.
// With --trace 0 a run sets up from scratch and evaluates repeatedly for
// --seconds and reports the medians of the end-to-end metrics, the
// throughput at a reference kernel's speed (hostspeed.go); with
// --trace 1 it reports the per-layer metrics of a traced run. --seed
// permutes the set-up order and the probes' samples, never the simulated
// outputs; the fleet streams take --arrival-seed (default 42) and
// --chaos-seed (default 1). README.md defines every workload, metric and
// output check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// gatedWorkers is the worker count of every gated (untraced) run. On a
// shared two-CPU host, six interleaved runs at Workers=1 spread 10-24%
// (max-min over median) per workload while Workers=2 spread 52-89%, so
// host-time metrics come only from Workers=1; Workers=2 appears only in
// the traced run's par.* rows.
const gatedWorkers = 1

// minReps is the fewest timed repetitions a run makes, whatever its
// time budget.
const minReps = 3

// A repetition sets up at least minSetups times and until it has spent
// setupSeconds setting up, and evaluates the last set-up. setup_s is
// the median over every set-up of the run: the paper set-up takes under
// 2 ms, so one sample per repetition would leave it at the mercy of a
// single scheduling hiccup.
const (
	minSetups    = 3
	setupSeconds = 0.05
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	arrivalSeed int64
	chaosSeed   int64
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one repetition simulated, read and checked after its
// timed evaluation.
type outcome struct {
	ops []op

	procPeriods int64
	efu         float64
	sloMet      float64
	// notes are workload-specific output lines (paper reference lines).
	notes []string
}

// op is one operation's result: a hash of its outputs, so a repetition
// whose outputs differ from the reference repetition's fails exactly the
// operations that differ, and whether its own output checks passed.
type op struct {
	digest uint64
	ok     bool
}

// failed counts the operations of o whose checks failed or, with a
// reference, whose outputs differ from ref's.
func (o outcome) failed(ref *outcome) int {
	n := 0
	for i, x := range o.ops {
		if !x.ok || ref != nil && (len(ref.ops) != len(o.ops) || ref.ops[i].digest != x.digest) {
			n++
		}
	}
	return n
}

// instance is one repetition's set-up state, ready for its timed call.
type instance interface {
	// eval is the timed evaluation.
	eval() error
	// outcome reads the simulated outputs and checks them (untimed).
	outcome() (outcome, error)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setUp builds everything a user pays for before the first timed
	// call. warm marks the untimed warm-up repetition, which may observe
	// more than a batch user would (the fleets count every period's
	// processes).
	setUp func(o options, workers int, warm bool) (instance, error)
	// traced runs the per-layer measurement within budget seconds.
	traced func(w *workload, o options, budget float64) (map[string]float64, []string, opsCount, error)
	// kernel is the reference kernel whose nominal speed the gated
	// proc_periods_per_s is reported at (hostspeed.go).
	kernel *hostRef
}

// opsCount tallies operations across a run.
type opsCount struct{ attempted, failed int }

// add counts o's operations, checked against ref when ref is non-nil.
func (c *opsCount) add(o outcome, ref *outcome) {
	c.attempted += len(o.ops)
	c.failed += o.failed(ref)
}

var workloads = []*workload{
	{name: "paper-static", setUp: setUpPaper(false), traced: tracePaper(false), kernel: mixedRef},
	{name: "paper-dicer", setUp: setUpPaper(true), traced: tracePaper(true), kernel: mixedRef},
	{name: "fleet-scale", setUp: setUpFleet(scaleSpec), traced: traceFleet(scaleSpec), kernel: jsonRef},
	{name: "fleet-ops", setUp: setUpFleet(opsSpec), traced: traceFleet(opsSpec), kernel: jsonRef},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the set-up order and probe samples")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Int64Var(&o.arrivalSeed, "arrival-seed", 42, "fleet arrival stream seed")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "fleet node-chaos seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == o.workload {
			w = c
		}
	}
	if w == nil {
		var names []string
		for _, c := range workloads {
			names = append(names, c.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, names)
		return 2
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d arrival_seed=%d chaos_seed=%d seconds=%g trace=%d\n",
		o.workload, o.seed, o.arrivalSeed, o.chaosSeed, o.seconds, traceFlag)
	var (
		res   result
		err   error
		notes []string
	)
	if o.trace {
		res, notes, err = runTraced(w, o)
	} else {
		res, notes, err = runGated(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	body, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(body))
	return 0
}

// host describes the machine and runtime a run measured on.
func host(workers int) map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"workers":    workers,
	}
}

// infoLine renders the host block, seeds and simulated-output
// fingerprint as one JSON line, so two commits visibly simulate the same
// thing or visibly do not.
func infoLine(o options, workers int, fp map[string]any) string {
	b, _ := json.Marshal(map[string]any{
		"info": map[string]any{
			"workload":    o.workload,
			"seed":        o.seed,
			"arrivalSeed": o.arrivalSeed,
			"chaosSeed":   o.chaosSeed,
			"host":        host(workers),
			"fingerprint": fp,
		},
	})
	return string(b)
}

// repetition is fresh set-ups followed by one timed evaluation.
type repetition struct {
	setups []float64 // s, each
	eval   float64   // s
	cpu    float64   // process CPU s during eval
	allocB float64   // heap bytes allocated during eval
	liveB  float64   // live heap after a forced GC at the end of eval
	// ref is the reference kernel's time, the mean of its runs just
	// before and just after eval (timed repetitions of the gated run;
	// 0 elsewhere).
	ref float64
	out outcome
}

// repeat runs one untimed warm-up repetition and then timed repetitions
// until budget seconds have passed (at least minReps). Every timed
// repetition's outputs are checked against the warm-up's, whose outcome
// is returned.
func repeat(w *workload, o options, workers int, budget float64) (ref outcome, reps []repetition, ops opsCount, err error) {
	warm, err := once(w, o, workers, true, nil)
	if err != nil {
		return ref, nil, ops, err
	}
	ref = warm.out
	ops.add(ref, nil)
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < budget {
		r, err := once(w, o, workers, false, w.kernel)
		if err != nil {
			return ref, nil, ops, err
		}
		ops.add(r.out, &ref)
		r.out = outcome{} // keep only the reference's outputs live
		reps = append(reps, r)
	}
	return ref, reps, ops, nil
}

// once runs one repetition. The collector runs before each set-up and
// before the evaluation so each starts from the same heap state; the
// set-up itself is timed with the collector on, as users pay for it.
// A non-nil kernel runs just before and just after the evaluation,
// each time on a freshly collected heap.
func once(w *workload, o options, workers int, warm bool, kernel *hostRef) (repetition, error) {
	var (
		r     repetition
		inst  instance
		spent float64
	)
	for len(r.setups) < minSetups || spent < setupSeconds {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setUp(o, workers, warm)
		d := time.Since(t0).Seconds()
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, d)
		spent += d
	}
	runtime.GC()
	var before, after float64
	if kernel != nil {
		var err error
		if before, err = kernel.run(); err != nil {
			return r, err
		}
		runtime.GC()
	}
	a0, c0 := heapAllocs(), cpuSeconds()
	t1 := time.Now()
	err := inst.eval()
	r.eval = time.Since(t1).Seconds()
	r.cpu = cpuSeconds() - c0
	r.allocB = float64(heapAllocs() - a0)
	if err != nil {
		return r, err
	}
	runtime.GC()
	r.liveB = float64(liveHeap())
	if kernel != nil {
		if after, err = kernel.run(); err != nil {
			return r, err
		}
		r.ref = (before + after) / 2
	}
	r.out, err = inst.outcome()
	return r, err
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

func heapAllocs() uint64 {
	metrics.Read(memSamples[:1])
	return memSamples[0].Value.Uint64()
}

func liveHeap() uint64 {
	metrics.Read(memSamples[1:])
	return memSamples[1].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// pick returns one field of every repetition.
func pick(reps []repetition, f func(r *repetition) float64) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = f(&reps[i])
	}
	return out
}

// runGated is the --trace 0 run: the six end-to-end metrics, each the
// median over repetitions.
func runGated(w *workload, o options) (result, []string, error) {
	ref, reps, ops, err := repeat(w, o, gatedWorkers, o.seconds)
	if err == nil && ref.procPeriods == 0 {
		err = fmt.Errorf("%w: no process-periods counted", errCheck)
	}
	if err != nil {
		return result{}, nil, err
	}
	evals := pick(reps, func(r *repetition) float64 { return r.eval })
	raw := pick(reps, func(r *repetition) float64 { return float64(ref.procPeriods) / r.eval })
	// Each repetition's rate at the reference kernel's nominal speed;
	// the host-time rate is printed beside it.
	rates := pick(reps, func(r *repetition) float64 { return float64(ref.procPeriods) / r.eval * r.ref / w.kernel.nominal })
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.setups...)
	}
	res := result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"proc_periods_per_s": {median(rates), "1/s"},
			"efu":                {ref.efu, "ratio"},
			"slo_met_frac":       {ref.sloMet, "ratio"},
			"alloc_mb":           {median(pick(reps, func(r *repetition) float64 { return r.allocB })) / 1e6, "MB"},
			"live_heap_mb":       {median(pick(reps, func(r *repetition) float64 { return r.liveB })) / 1e6, "MB"},
		},
	}
	notes := []string{
		infoLine(o, gatedWorkers, fingerprint(ref)),
		fmt.Sprintf("repetitions: %d timed after 1 warm-up; eval s median %.4f q1 %.4f q3 %.4f; %d set-ups, s median %.5f; process-periods per repetition %d",
			len(reps), median(evals), quantile(evals, 0.25), quantile(evals, 0.75), len(setups), median(setups), ref.procPeriods),
		fmt.Sprintf("workers=%d: gated host times come from Workers=1 only (on a shared 2-CPU host Workers=1 runs spread 10-24%%, Workers=2 52-89%%); Workers=2 is in the traced run's par.* rows",
			gatedWorkers),
	}
	refs := pick(reps, func(r *repetition) float64 { return r.ref })
	notes = append(notes, fmt.Sprintf("host speed: %s reference kernel s median %.5f q1 %.5f q3 %.5f (nominal %g); host-time process-periods/s median %.6g q1 %.6g q3 %.6g",
		w.kernel.name, median(refs), quantile(refs, 0.25), quantile(refs, 0.75), w.kernel.nominal, median(raw), quantile(raw, 0.25), quantile(raw, 0.75)))
	notes = append(notes, ref.notes...)
	return res, notes, nil
}

// fingerprint summarises the simulated outputs.
func fingerprint(ref outcome) map[string]any {
	h := newDigest()
	for _, x := range ref.ops {
		h.u64(x.digest)
	}
	return map[string]any{
		"efu":          ref.efu,
		"slo_met_frac": ref.sloMet,
		"proc_periods": ref.procPeriods,
		"ops":          len(ref.ops),
		"digest":       fmt.Sprintf("%016x", h.sum()),
	}
}

// runTraced is the --trace 1 run: the workload's per-layer metrics.
func runTraced(w *workload, o options) (result, []string, error) {
	vals, notes, ops, err := w.traced(w, o, o.seconds)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, notes, nil
}

// spanPath is where a traced run writes its spans.
func spanPath(o options) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

// errCheck is returned when an output check cannot even run.
var errCheck = errors.New("output check failed")
