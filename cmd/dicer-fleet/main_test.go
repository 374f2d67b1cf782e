package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dicer/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenParams is the pinned configuration behind the golden summary:
// small, chaotic and fully seeded.
func goldenParams() fleetParams {
	return fleetParams{
		nodes: 3, hps: "omnetpp1,sphinx1", policy: "dicer",
		scheduler: "headroom", schedSeed: 1, periods: 30,
		slo: 0.9, queueCap: 32,
		seed: 42, rate: 2, meanDur: 8, stream: 0.5,
		chaosName: "node-storm", chaosSeed: 1,
	}
}

// TestGoldenSummary pins the batch-mode summary JSON byte-for-byte: the
// cluster is deterministic, so any drift is a behaviour change that must
// be reviewed (then refreshed with -update).
func TestGoldenSummary(t *testing.T) {
	dir := t.TempDir()
	summary := filepath.Join(dir, "summary.json")
	if err := runBatch(goldenParams(), "", summary, 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "summary.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenClusterTrace pins the batch-mode cluster trace byte-for-byte
// and commits it (testdata/cluster.jsonl.golden) — it is the fleet input
// of the offline diagnostic engine's golden tests and of the CI
// analyze-smoke job, so drift means either a behaviour change or a trace
// schema change, both of which must be reviewed (then refreshed with
// -update).
func TestGoldenClusterTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.jsonl")
	if err := runBatch(goldenParams(), path, "", 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "cluster.jsonl.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cluster trace drifted from golden (%d vs %d bytes); re-run with -update if intended",
			len(got), len(want))
	}
}

// goldenMigrationParams layers the control loops onto the pinned
// configuration: heavier arrivals so the burn-rate alerts and the
// autoscaler's pressure signal actually trip, migration and autoscaling
// enabled.
func goldenMigrationParams() fleetParams {
	p := goldenParams()
	p.rate = 4
	p.periods = 60
	p.migrate = true
	p.autoscale = true
	return p
}

// TestGoldenMigrationTrace pins the control-loop cluster trace
// byte-for-byte and asserts it actually exercises the loops: at least
// one slo-burn-migration eviction and one autoscaler action must appear
// as first-class fleet events, so the golden cannot silently degrade
// into a static trace.
func TestGoldenMigrationTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "migration.jsonl")
	if err := runBatch(goldenMigrationParams(), path, "", 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cause := range []string{fleet.CauseMigration, fleet.CauseRepack} {
		if !bytes.Contains(got, []byte(`"cause":"`+cause+`"`)) {
			t.Errorf("trace has no %q event; the golden no longer exercises the control loops", cause)
		}
	}
	golden := filepath.Join("testdata", "migration.jsonl.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("migration trace drifted from golden (%d vs %d bytes); re-run with -update if intended",
			len(got), len(want))
	}
}

// forensicsParams arms the flight recorder on the control-loop golden
// configuration: migrations, autoscaling and node-storm chaos supply
// slo-burn and node-loss triggers for the recorder to seal.
func forensicsParams() fleetParams {
	p := goldenMigrationParams()
	p.forensics = true
	return p
}

// TestGoldenIncidentBundles runs the forensics configuration with an
// -incident-dir and pins every sealed bundle byte-for-byte under
// testdata/incidents/. The committed bundles are the live-dump ==
// committed-golden equivalence proof — the run is fully seeded, so a
// live dump must reproduce these exact bytes — and the inputs of
// dicer-trace's explain golden tests.
func TestGoldenIncidentBundles(t *testing.T) {
	dir := t.TempDir()
	p := forensicsParams()
	p.incidentDir = dir
	if err := runBatch(p, "", "", 0); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "incident-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("forensics run sealed no incident bundles")
	}

	// The run must exercise both trigger families, or the goldens stop
	// covering the interesting paths.
	triggers := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := fleet.ReadIncident(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		triggers[inc.Manifest.Trigger] = true
	}
	for _, want := range []string{fleet.TriggerSLOBurn, fleet.TriggerNodeLoss} {
		if !triggers[want] {
			t.Errorf("no %s bundle sealed; triggers seen: %v", want, triggers)
		}
	}

	goldenDir := filepath.Join("testdata", "incidents")
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := filepath.Glob(filepath.Join(goldenDir, "incident-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("no committed bundles in %s (run with -update to create)", goldenDir)
	}
	if len(want) != len(files) {
		t.Fatalf("live run sealed %d bundles, goldens have %d; re-run with -update if intended",
			len(files), len(want))
	}
	for i, f := range files {
		if filepath.Base(f) != filepath.Base(want[i]) {
			t.Errorf("bundle %d named %s, golden %s", i, filepath.Base(f), filepath.Base(want[i]))
			continue
		}
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := os.ReadFile(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("%s drifted from golden (%d vs %d bytes); re-run with -update if intended",
				filepath.Base(f), len(got), len(exp))
		}
	}
}

// TestBatchTraceDeterministic runs the batch path twice and compares the
// cluster traces byte-for-byte.
func TestBatchTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	run := func(name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := runBatch(goldenParams(), path, "", 0); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run("a.jsonl"), run("b.jsonl")
	if !bytes.Equal(a, b) {
		t.Fatal("batch runs with identical flags produced different traces")
	}
	hdr, recs, err := fleet.ReadClusterTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Nodes != 3 || len(recs) != 30 {
		t.Fatalf("trace shape: nodes=%d records=%d", hdr.Nodes, len(recs))
	}
}

// TestConfigRejectsBadFlags covers flag validation.
func TestConfigRejectsBadFlags(t *testing.T) {
	p := goldenParams()
	p.policy = "bogus"
	if _, err := p.config(); err == nil {
		t.Error("bogus policy accepted")
	}
	p = goldenParams()
	p.chaosName = "bogus"
	if _, err := p.config(); err == nil {
		t.Error("bogus chaos schedule accepted")
	}
}

// TestServeEndpoints drives the serve mux through httptest: the loop
// runs a real (tiny) cluster in the background, so poll /healthz until
// the first lap lands, then check every endpoint.
func TestServeEndpoints(t *testing.T) {
	p := goldenParams()
	p.periods = 10
	p.chaosName = "none"
	st := newFleetServeState(p)
	go st.loop(p)
	srv := httptest.NewServer(st.mux(false))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st.monitor.Periods() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster loop produced no periods")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /healthz is 200 while clean, 503 once the burn-rate alert fires —
	// the loop keeps running laps, so both are legitimate snapshots.
	code, body := get("/healthz")
	switch {
	case code == 200 && strings.HasPrefix(body, "ok"):
	case code == 503 && strings.HasPrefix(body, "degraded"):
	default:
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "dicer_fleet_periods_total") {
		t.Fatalf("/metrics = %d, missing fleet series", code)
	}
	for _, want := range []string{"dicer_fleet_hp_slowdown_bucket", "dicer_fleet_efu_hist_bucket", "dicer_fleet_slo_alert_firing"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body := get("/nodes"); code != 200 || !strings.Contains(body, `"node"`) {
		t.Fatalf("/nodes = %d %q", code, body)
	}
	if code, _ := get("/queue"); code != 200 {
		t.Fatalf("/queue = %d", code)
	}
	code, body = get("/alerts")
	if code != 200 || !strings.Contains(body, `"aggregate"`) || !strings.Contains(body, `"nodes"`) {
		t.Fatalf("/alerts = %d %q", code, body)
	}
}

// TestServeIncidents drives the forensics path through the serve mux: a
// subscriber on /events must receive the sealed bundle's manifest as an
// SSE "incident" event, /incidents must list it, and /incidents/<file>
// must stream a parseable dicer-incident/v1 bundle.
func TestServeIncidents(t *testing.T) {
	p := forensicsParams()
	st := newFleetServeState(p)
	srv := httptest.NewServer(st.mux(false))
	defer srv.Close()

	// Subscribe before the cluster loop starts so the first lap's
	// incidents are pushed to us.
	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go st.loop(p)

	payload := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if sc.Text() == "event: incident" && sc.Scan() {
				payload <- strings.TrimPrefix(sc.Text(), "data: ")
				return
			}
		}
	}()
	var manifest fleet.IncidentManifest
	select {
	case data := <-payload:
		if err := json.Unmarshal([]byte(data), &manifest); err != nil {
			t.Fatalf("incident event payload is not a manifest: %v\n%s", err, data)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no incident event arrived on /events")
	}
	if manifest.Schema != fleet.IncidentSchema || manifest.Trigger == "" {
		t.Fatalf("incident manifest = %+v", manifest)
	}

	// The bundle behind the event is listed and fetchable.
	listResp, err := srv.Client().Get(srv.URL + "/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listed []struct {
		File string `json:"file"`
		fleet.IncidentManifest
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) == 0 {
		t.Fatal("/incidents is empty after an incident event")
	}
	bundleResp, err := srv.Client().Get(srv.URL + "/incidents/" + listed[0].File)
	if err != nil {
		t.Fatal(err)
	}
	defer bundleResp.Body.Close()
	if bundleResp.StatusCode != 200 {
		t.Fatalf("/incidents/%s = %d", listed[0].File, bundleResp.StatusCode)
	}
	inc, err := fleet.ReadIncident(bundleResp.Body)
	if err != nil {
		t.Fatalf("served bundle does not parse: %v", err)
	}
	if inc.Manifest.Seq != listed[0].Seq || inc.Manifest.Trigger != listed[0].Trigger ||
		inc.Manifest.Node != listed[0].Node || inc.Manifest.Period != listed[0].Period {
		t.Fatalf("served manifest %+v != listed %+v", inc.Manifest, listed[0].IncidentManifest)
	}
	if len(inc.Flight) == 0 {
		t.Fatal("served bundle has an empty flight recording")
	}

	if missing, err := srv.Client().Get(srv.URL + "/incidents/nope.jsonl"); err != nil {
		t.Fatal(err)
	} else {
		missing.Body.Close()
		if missing.StatusCode != 404 {
			t.Fatalf("/incidents/nope.jsonl = %d, want 404", missing.StatusCode)
		}
	}
}
