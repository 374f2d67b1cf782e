package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"dicer/internal/diag"
	"dicer/internal/fleet"
	"dicer/internal/httpd"
	"dicer/internal/machine"
	"dicer/internal/slo"
)

// fleetServeState is shared between the background cluster loop and the
// HTTP handlers: the fleet diagnostic monitor (cluster counters and node
// gauges, per-node + aggregate burn-rate alerters, slowdown and EFU
// histograms) behind /metrics, /alerts and /events, plus the most recent
// period's record and queue for /nodes and /queue.
type fleetServeState struct {
	monitor *diag.FleetMonitor
	events  *httpd.EventStream

	incidentDir string

	mu        sync.Mutex
	lastRec   fleet.ClusterRecord
	queue     []fleet.QueueEntry
	haveRec   bool
	laps      int
	lastErr   error
	incidents []*fleet.Incident
}

// maxServedIncidents bounds the bundles /incidents retains across laps;
// older ones rotate out (bundles written to -incident-dir persist).
const maxServedIncidents = 64

func newFleetServeState(p fleetParams) *fleetServeState {
	st := &fleetServeState{
		events:      httpd.NewEventStream(),
		incidentDir: p.incidentDir,
	}
	st.monitor = diag.NewFleetMonitor(diag.FleetMonitorConfig{
		SLO:      p.slo,
		LinkGbps: machine.Default().Link.CapacityGBps,
		OnAlert: func(node int, ev slo.AlertEvent) {
			b, err := json.Marshal(struct {
				Node int `json:"node"` // -1 = fleet aggregate
				slo.AlertEvent
			}{node, ev})
			if err == nil {
				st.events.Publish("alert", string(b))
			}
		},
	})
	return st
}

// observe is the cluster's OnPeriod callback.
func (st *fleetServeState) observe(rec *fleet.ClusterRecord, queue []fleet.QueueEntry) {
	st.monitor.ObserveRecord(rec)
	st.mu.Lock()
	st.lastRec = *rec
	st.lastRec.Nodes = append([]fleet.Heartbeat(nil), rec.Nodes...)
	st.queue = queue
	st.haveRec = true
	st.mu.Unlock()
}

func (st *fleetServeState) setErr(err error) {
	st.mu.Lock()
	st.lastErr = err
	st.mu.Unlock()
}

// onIncident is the cluster's OnIncident callback: retain the bundle
// for /incidents (bounded), push its manifest to SSE subscribers, and
// persist it when -incident-dir is set.
func (st *fleetServeState) onIncident(inc *fleet.Incident) {
	st.mu.Lock()
	st.incidents = append(st.incidents, inc)
	if len(st.incidents) > maxServedIncidents {
		st.incidents = st.incidents[len(st.incidents)-maxServedIncidents:]
	}
	st.mu.Unlock()
	if b, err := json.Marshal(inc.Manifest); err == nil {
		st.events.Publish("incident", string(b))
	}
	if st.incidentDir != "" {
		if _, err := dumpIncidents(st.incidentDir, []*fleet.Incident{inc}); err != nil {
			st.setErr(err)
		}
	}
}

// loop runs cluster laps until one fails; the failure parks in /healthz.
// Each lap rebuilds the cluster, so node and controller state start
// fresh while the monitor's counters and alert history accumulate
// across laps.
func (st *fleetServeState) loop(p fleetParams) {
	for {
		cfg, err := p.config()
		if err != nil {
			st.setErr(err)
			return
		}
		cfg.OnPeriod = st.observe
		if cfg.Forensics.Enabled {
			cfg.OnIncident = st.onIncident
		}
		c, err := fleet.New(cfg)
		if err != nil {
			st.setErr(err)
			return
		}
		if _, err := c.Run(); err != nil {
			st.setErr(err)
			return
		}
		st.mu.Lock()
		st.laps++
		st.mu.Unlock()
	}
}

// mux wires the endpoints. Split from runServe so tests drive it through
// httptest without binding a socket.
func (st *fleetServeState) mux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st.monitor.WriteProm(w)
		st.events.WriteProm(w)
	})
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		rec, ok := st.lastRec, st.haveRec
		st.mu.Unlock()
		if !ok {
			http.Error(w, "no cluster period recorded yet", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, rec.Nodes)
	})
	mux.HandleFunc("/queue", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		q, ok := st.queue, st.haveRec
		st.mu.Unlock()
		if !ok {
			http.Error(w, "no cluster period recorded yet", http.StatusServiceUnavailable)
			return
		}
		if q == nil {
			q = []fleet.QueueEntry{}
		}
		writeJSON(w, q)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, st.monitor.Snapshot())
	})
	mux.Handle("/events", st.events)
	// /incidents lists sealed forensic bundles (manifest + filename);
	// /incidents/<filename> streams one bundle as dicer-incident/v1
	// JSONL, ready for `dicer-trace explain`.
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		incs := append([]*fleet.Incident(nil), st.incidents...)
		st.mu.Unlock()
		type listed struct {
			File string `json:"file"`
			fleet.IncidentManifest
		}
		out := make([]listed, 0, len(incs))
		for _, inc := range incs {
			out = append(out, listed{File: inc.Filename(), IncidentManifest: inc.Manifest})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/incidents/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/incidents/")
		st.mu.Lock()
		var found *fleet.Incident
		for _, inc := range st.incidents { // last match wins across laps
			if inc.Filename() == name {
				found = inc
			}
		}
		st.mu.Unlock()
		if found == nil {
			http.Error(w, "no such incident bundle", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := found.Dump(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		err, laps := st.lastErr, st.laps
		st.mu.Unlock()
		if err != nil {
			http.Error(w, "cluster loop stopped: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if degraded, why := st.monitor.Degraded(); degraded {
			http.Error(w, "degraded: "+why, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok laps=%d periods=%d\n", laps, st.monitor.Periods())
	})
	if withPprof {
		httpd.AddPprof(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// runServe starts the background cluster loop and serves the fleet
// observability endpoints with header/idle timeouts, draining gracefully
// on SIGINT/SIGTERM.
func runServe(addr string, p fleetParams) error {
	st := newFleetServeState(p)
	go st.loop(p)
	fmt.Printf("serving /metrics /nodes /queue /alerts /events /incidents /healthz on %s (%d nodes, policy %s, scheduler %s, %d periods per lap)\n",
		addr, p.nodes, p.policy, p.scheduler, p.periods)
	return httpd.ListenAndServe(addr, st.mux(p.pprof))
}
