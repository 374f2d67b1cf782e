package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dicer"
)

// TestServeEndpoints runs one short lap synchronously and scrapes the
// three endpoints through httptest — the serve mode without a socket.
func TestServeEndpoints(t *testing.T) {
	p := serveParams{hp: "omnetpp1", be: "gcc_base1", n: 9, periods: 12, policy: "dicer"}
	st := newServeState(p)
	// Two laps: /trace must serve the latest *complete* lap, so a
	// multi-lap loop still yields a replayable trace of exactly one run.
	for lap := 0; lap < 2; lap++ {
		if err := st.runOnce(p); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(st.mux(true))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok records=24") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"dicer_records_total 24", "dicer_runs_total 2", "dicer_hp_ways ",
		"dicer_hp_slowdown_bucket", "dicer_hp_slowdown_quantile",
		"dicer_link_utilisation_bucket", "dicer_slo_alert_firing",
		"dicer_observe_latency_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/alerts")
	if code != http.StatusOK {
		t.Fatalf("/alerts = %d", code)
	}
	var snap struct {
		SLO       float64 `json:"slo"`
		Aggregate struct {
			Periods int `json:"periods"`
		} `json:"aggregate"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/alerts unparseable: %v\n%s", err, body)
	}
	if snap.SLO != 0.9 || snap.Aggregate.Periods != 24 {
		t.Fatalf("/alerts snapshot wrong: %s", body)
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d (pprof enabled)", code)
	}

	code, body = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	h, recs, err := dicer.ReadTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/trace output unparseable: %v", err)
	}
	if h.Policy != "DICER" || len(h.HPs) != 1 || h.HPs[0] != "omnetpp1" || len(recs) != 12 {
		t.Fatalf("/trace header/records wrong: %+v, %d records", h, len(recs))
	}
	// The served trace is replayable like any recorded one.
	res, err := dicer.ReplayTrace(h, recs)
	if err != nil {
		t.Fatalf("served trace does not replay: %v", err)
	}
	if res.Periods != 12 || !res.MasksVerified {
		t.Fatalf("served-trace replay summary wrong: %+v", res)
	}
}

// TestServeTraceBeforeFirstRun: the endpoint degrades gracefully while
// the first lap is still warming up.
func TestServeTraceBeforeFirstRun(t *testing.T) {
	st := newServeState(serveParams{})
	srv := httptest.NewServer(st.mux(false))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/trace before any run = %d, want 503", resp.StatusCode)
	}
	// pprof stays off unless asked for.
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof without -pprof = %d, want 404", resp.StatusCode)
	}
}

// TestServeHealthzDegradesOnAlert: a workload engineered to violate a
// strict SLO must trip the burn-rate alert, flip /healthz to 503, and
// publish the fire on the SSE stream.
func TestServeHealthzDegradesOnAlert(t *testing.T) {
	// omnetpp1 under UM with 9 streaming BEs misses a 99% SLO nearly
	// every period — the alert must fire within one lap.
	p := serveParams{hp: "omnetpp1", be: "gcc_base1", n: 9, periods: 30, policy: "um", slo: 0.99}
	st := newServeState(p)
	if err := st.runOnce(p); err != nil {
		t.Fatal(err)
	}
	if firing, _ := st.monitor.Degraded(); !firing {
		t.Fatalf("alert not firing under an unmanaged 99%% SLO: %+v", st.monitor.Snapshot())
	}
	srv := httptest.NewServer(st.mux(false))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("/healthz with firing alert = %d %q, want 503 degraded", resp.StatusCode, body)
	}
	snap := st.monitor.Snapshot()
	if len(snap.Events) == 0 || !snap.Events[0].Firing {
		t.Fatalf("no fire event recorded: %+v", snap)
	}
}
