package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dicer"
	"dicer/internal/diag"
	"dicer/internal/httpd"
	"dicer/internal/slo"
)

// serveParams is the scenario the -serve loop runs lap after lap.
type serveParams struct {
	hp, be     string
	n, periods int
	policy     string
	chaosName  string
	chaosSeed  int64
	guard      bool
	slo        float64
	pprof      bool
}

// serveState is shared between the background scenario loop and the HTTP
// handlers: the diagnostic monitor (record counters and gauges,
// slowdown/link histograms, SLO burn-rate alerter) behind /metrics,
// /alerts and /events, and the most recent *completed* lap's trace for
// /trace.
// Serving whole laps (rather than a sliding window of recent periods)
// keeps the /trace output replayable — dicer-trace replay re-drives the
// controller from its Setup state, so the trace must start at period 0.
type serveState struct {
	monitor *diag.Monitor
	events  *httpd.EventStream

	mu      sync.Mutex
	cur     *dicer.TraceRing // lap in progress, rotated on Start
	header  dicer.TraceHeader
	last    []dicer.TraceRecord // latest completed lap
	haveRun bool
	lastErr error
	timed   *diag.TimedPolicy // current lap's policy wrapper (latency histogram)
}

func newServeState(p serveParams) *serveState {
	st := &serveState{events: httpd.NewEventStream()}
	st.monitor = diag.NewMonitor(diag.MonitorConfig{
		SLO: p.slo,
		OnAlert: func(ev slo.AlertEvent) {
			if b, err := json.Marshal(ev); err == nil {
				st.events.Publish("alert", string(b))
			}
		},
	})
	return st
}

// Emit and Start implement the trace sink interface: Start captures the
// header and opens a fresh per-lap buffer (sized from the header's
// horizon, so no period of the lap is ever evicted); Emit deep-copies
// each record into it via the ring.
func (st *serveState) Emit(r *dicer.TraceRecord) {
	st.mu.Lock()
	ring := st.cur
	st.mu.Unlock()
	if ring != nil {
		ring.Emit(r)
	}
}

func (st *serveState) Start(h dicer.TraceHeader) error {
	st.mu.Lock()
	st.header = h
	st.cur = dicer.NewTraceRing(h.HorizonPeriods)
	st.mu.Unlock()
	return nil
}

// finishRun publishes the lap that just completed as the /trace payload.
func (st *serveState) finishRun() {
	st.mu.Lock()
	if st.cur != nil {
		st.last = st.cur.Snapshot()
		st.haveRun = true
	}
	st.mu.Unlock()
}

func (st *serveState) setErr(err error) {
	st.mu.Lock()
	st.lastErr = err
	st.mu.Unlock()
}

// runOnce executes one lap of the scenario with the serve sinks attached.
// The policy is rebuilt every lap so each run starts from a fresh
// controller state; the monitor persists across laps so alert state and
// histograms keep their history.
func (st *serveState) runOnce(p serveParams) error {
	pol, _, withMBA, err := buildPolicy(p.policy, p.hp)
	if err != nil {
		return err
	}
	timed := diag.NewTimedPolicy(pol)
	st.mu.Lock()
	st.timed = timed
	st.mu.Unlock()
	sc, err := buildScenario(p.hp, p.be, p.n, p.periods, p.guard, p.chaosName, p.chaosSeed)
	if err != nil {
		return err
	}
	sc.WithMBA = withMBA
	if p.slo > 0 {
		sc.HPs[0].SLO = p.slo
	}
	sc.Trace = dicer.TraceMulti{st, st.monitor}
	if _, err := sc.Run(timed); err != nil {
		return err
	}
	st.finishRun()
	st.monitor.AddRun()
	return nil
}

// loop runs laps until one fails; the failure parks in /healthz.
func (st *serveState) loop(p serveParams) {
	for {
		if err := st.runOnce(p); err != nil {
			st.setErr(err)
			return
		}
	}
}

// mux wires the endpoints. Split from runServe so tests drive it through
// httptest without binding a socket.
func (st *serveState) mux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st.monitor.WriteProm(w)
		st.mu.Lock()
		timed := st.timed
		st.mu.Unlock()
		if timed != nil {
			timed.WriteProm(w)
		}
		st.events.WriteProm(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		h, recs, ok := st.header, st.last, st.haveRun
		st.mu.Unlock()
		if !ok {
			http.Error(w, "no completed run recorded yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		jl := dicer.NewTraceJSONL(w)
		if err := jl.Start(h); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := range recs {
			jl.Emit(&recs[i])
		}
		if err := jl.Flush(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st.monitor.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/events", st.events)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		err := st.lastErr
		st.mu.Unlock()
		if err != nil {
			http.Error(w, "scenario loop stopped: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if degraded, why := st.monitor.Degraded(); degraded {
			http.Error(w, "degraded: "+why, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok records=%d\n", st.monitor.Records())
	})
	if withPprof {
		httpd.AddPprof(mux)
	}
	return mux
}

// runServe starts the background scenario loop and serves the
// observability endpoints with header/idle timeouts, draining gracefully
// on SIGINT/SIGTERM.
func runServe(addr string, p serveParams) error {
	st := newServeState(p)
	go st.loop(p)
	fmt.Printf("serving /metrics /trace /alerts /events /healthz on %s (%s + %dx %s, policy %s, %d periods per lap)\n",
		addr, p.hp, p.n, p.be, p.policy, p.periods)
	return httpd.ListenAndServe(addr, st.mux(p.pprof))
}
