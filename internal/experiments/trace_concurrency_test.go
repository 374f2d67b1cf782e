package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dicer/internal/diag"
	"dicer/internal/obs"
)

// TestRunManyWithLiveTracing exercises the observability wiring the way
// the serve mode does, but across a parallel fleet: every uncached run
// gets its own trace ring (per-runner isolation), all runs share one
// diagnostic monitor, and a scraper goroutine renders its /metrics
// exposition concurrently with the runs. Run under -race this pins the
// concurrency contract of Config.Trace, Ring, and Monitor.
func TestRunManyWithLiveTracing(t *testing.T) {
	const horizon = 15
	mon := diag.NewMonitor(diag.MonitorConfig{})
	var mu sync.Mutex
	rings := map[string]*obs.Ring{}

	cfg := DefaultConfig()
	cfg.Trace = func(w Workload, pol PolicyName) obs.Sink {
		// One slot to spare: a ring holding exactly horizon records saw
		// no more.
		ring := obs.NewRing(horizon + 1)
		mu.Lock()
		rings[fmt.Sprintf("%s/%s", w, pol)] = ring
		mu.Unlock()
		return obs.MultiSink{ring, mon}
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			mon.WriteProm(&buf)
		}
	}()

	workloads := []Workload{
		{HP: "omnetpp1", BE: "gcc_base1", BECount: 9},
		{HP: "milc1", BE: "gcc_base1", BECount: 9},
		{HP: "mcf1", BE: "lbm1", BECount: 5},
	}
	var jobs []Job
	for _, w := range workloads {
		for _, pol := range []PolicyName{UM, DICER} {
			jobs = append(jobs, Job{W: w, Policy: pol, Horizon: horizon})
		}
	}
	if _, err := s.RunMany(jobs); err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapes.Wait()

	if len(rings) != len(jobs) {
		t.Fatalf("%d trace sinks created, want one per uncached run (%d)", len(rings), len(jobs))
	}
	for key, ring := range rings {
		recs := ring.Snapshot()
		if len(recs) != horizon {
			t.Errorf("%s: ring saw %d records, want %d", key, len(recs), horizon)
		}
		for _, r := range recs {
			if r.Err != "" || r.Guard != "" {
				t.Errorf("%s period %d: unexpected annotation %+v", key, r.Period, r)
			}
		}
	}
	if got, want := mon.Records(), horizon*len(jobs); got != want {
		t.Fatalf("monitor digested %d records, want %d", got, want)
	}

	// Memoised replays do not re-execute and so must not re-emit traces:
	// running the same jobs again creates no new sinks and no records.
	if _, err := s.RunMany(jobs); err != nil {
		t.Fatal(err)
	}
	if len(rings) != len(jobs) {
		t.Fatalf("cached re-run created new trace sinks (%d total)", len(rings))
	}
	if got := mon.Records(); got != horizon*len(jobs) {
		t.Fatalf("cached re-run re-emitted records: %d", got)
	}
}

// TestSuiteTraceDescribesWorkload: a trace recorded through Config.Trace
// carries the whole workload in its header — every BE, the SLO, the link
// capacity and the HP's alone reference — so offline analysis names the
// workload and measures slowdown against the suite's own alone run
// rather than the trace's peak HP IPC.
func TestSuiteTraceDescribesWorkload(t *testing.T) {
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	cfg := DefaultConfig()
	cfg.Trace = func(Workload, PolicyName) obs.Sink { return jl }
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}, DICER, 20); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := diag.Analyze(&buf, diag.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.AloneIPC("omnetpp1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "omnetpp1 + 9 BEs" {
		t.Errorf("workload %q, want %q", rep.Workload, "omnetpp1 + 9 BEs")
	}
	if rep.AloneIPC != want || rep.RefSource != "header" {
		t.Errorf("alone reference %v from %q, want %v from the header", rep.AloneIPC, rep.RefSource, want)
	}
}
