package main

// End-to-end tests of the observability surface: the Prometheus
// exposition, readiness vs liveness, sampled request traces, and the
// request-ID middleware. Instrument values are process-global and
// accumulate across tests, so assertions check presence and shape, not
// exact counts.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"knor/internal/telemetry"
)

const createBody = `{"name":"obs","k":2,"rows":[[0,0],[0,1],[9,0],[9,1]]}`

// TestMetricsExposition drives traffic through /assign and asserts the
// exposition is valid Prometheus text spanning every instrumented
// layer, with at least 25 distinct series families.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 3; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1],[8,1]]}`); code != http.StatusOK {
			t.Fatalf("assign: %d", code)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type: %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	families := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(f)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			families[parts[0]] = parts[1]
		}
	}
	if len(families) < 25 {
		t.Fatalf("only %d series families on /metrics, want >= 25:\n%v", len(families), families)
	}
	// One representative series per layer must be present.
	for _, name := range []string{
		"knor_serve_requests_total",      // serve batcher edge
		"knor_serve_gemm_seconds",        // serve flush path
		"knor_shardserve_requests_total", // fan-out edge
		"knor_store_page_hits_total",     // I/O stack
		"knor_sem_iterations_total",      // SEM engine
		"knor_registry_publishes_total",  // registry
		"knor_http_requests_total",       // HTTP middleware
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	// The served traffic must be visible: requests counted, latency
	// histogram populated with cumulative buckets.
	if !strings.Contains(text, "knor_serve_request_seconds_bucket{le=\"+Inf\"}") {
		t.Error("request latency histogram has no +Inf bucket")
	}
	if !strings.Contains(text, `knor_http_requests_total{path="/v1/assign",code="200"}`) {
		t.Error("HTTP middleware did not count /v1/assign 200s")
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /healthz is
// always 200 while the process serves; /readyz turns 503 with no
// models, 200 once one is published, and 503 again while draining.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz with no models: %d, want 200 (liveness is not readiness)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models: %d, want 503", got)
	}
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with a model: %d, want 200", got)
	}
	s.draining.Store(true)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", got)
	}
}

// TestReadyzStateDir: an unwritable state directory turns readiness off
// (snapshots would silently fail while the server looked healthy).
func TestReadyzStateDir(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverOptions{stateDir: dir})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with writable state dir: %d", resp.StatusCode)
	}
}

// TestTraceSampling samples every /assign request and asserts the dump
// shows the full pipeline: enqueue -> coalesce -> gemm -> reply.
func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 4; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("assign: %d", code)
		}
	}
	var dump struct {
		SampleEvery int `json:"sample_every"`
		Traces      []struct {
			ID      uint64  `json:"id"`
			TotalUS float64 `json:"total_us"`
			Stages  []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if dump.SampleEvery != 1 || len(dump.Traces) == 0 {
		t.Fatalf("traces dump: every=%d n=%d", dump.SampleEvery, len(dump.Traces))
	}
	tr := dump.Traces[0]
	if tr.TotalUS <= 0 {
		t.Errorf("trace total_us = %v, want > 0", tr.TotalUS)
	}
	stages := map[string]bool{}
	for _, s := range tr.Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"enqueue", "coalesce", "gemm", "reply"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}
}

// TestShardedTraceSampling runs the same check through the fan-out
// path: shard spans and the min-allreduce stage must appear.
func TestShardedTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 4; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("assign: %d", code)
		}
	}
	var dump struct {
		Traces []struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no sampled traces through the sharded path")
	}
	stages := map[string]bool{}
	for _, s := range dump.Traces[0].Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"enqueue", "coalesce", "gemm", "shard_0", "shard_1", "min_allreduce", "reply"} {
		if !stages[want] {
			t.Errorf("sharded trace missing stage %q (have %v)", want, stages)
		}
	}
}

// TestRequestIDMiddleware: every response carries an X-Request-ID, and
// a caller-provided ID is echoed back.
func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID assigned")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("X-Request-ID = %q, want echo of caller value", got)
	}
}

// TestStatsObservabilityFields: /v1/stats carries the new p95, per-model
// in-flight map, and snapshot persistence counters.
func TestStatsObservabilityFields(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverOptions{stateDir: dir})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	var stats map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	for _, key := range []string{"p95_ms", "inflight", "snapshot_saves", "snapshot_loads"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
	var inflight map[string]int
	if err := json.Unmarshal(stats["inflight"], &inflight); err != nil {
		t.Fatalf("inflight not a map: %s", stats["inflight"])
	}

	// The latency fields are read from the edge request histogram that
	// /metrics exposes, not from a second recorder.
	var p50 float64
	if err := json.Unmarshal(stats["p50_ms"], &p50); err != nil {
		t.Fatalf("p50_ms not a number: %s", stats["p50_ms"])
	}
	edge := telemetry.Default.Histogram("knor_serve_request_seconds", "", nil)
	if want := 1e3 * edge.Quantile(0.5); p50 != want || p50 <= 0 {
		t.Errorf("p50_ms = %v, want 1e3 x knor_serve_request_seconds Quantile(0.5) = %v", p50, want)
	}
	// With telemetry off the histogram is not fed: the fields read 0.
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	var off struct {
		P50  float64 `json:"p50_ms"`
		P95  float64 `json:"p95_ms"`
		P99  float64 `json:"p99_ms"`
		Mean float64 `json:"mean_ms"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &off); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if off.P50 != 0 || off.P95 != 0 || off.P99 != 0 || off.Mean != 0 {
		t.Errorf("latency fields with telemetry off = %+v, want all 0", off)
	}
}

// TestPprofGate: /debug/pprof/ serves only when opted in.
func TestPprofGate(t *testing.T) {
	_, tsOff := newTestServer(t, serverOptions{})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
	_, tsOn := newTestServer(t, serverOptions{pprof: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: %d", resp.StatusCode)
	}
}

// TestClusterMetricsEndpoint: /metrics/cluster serves the federated
// exposition in every mode — single-process it is rank 0 alone, every
// series labeled rank="0" and no stale marker raised.
func TestClusterMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	resp, err := http.Get(ts.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/cluster: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics/cluster content type: %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, `rank="0"`) {
		t.Error("federated exposition carries no rank=\"0\" series")
	}
	if !strings.Contains(text, `knor_serve_requests_total{rank="0"}`) {
		t.Error("federated exposition missing rank-labeled serve counter")
	}
	if strings.Contains(text, `knor_federation_stale{rank="0"} 1`) {
		t.Error("rank 0 marked stale on its own scrape")
	}
}

// TestClusterInProcessPeersShareRankZero: in-process peers run in the
// coordinator's process, so their ranks must not repeat rank 0's
// series — /metrics/cluster shows no rank="1" series beyond the stale
// marker, and /v1/cluster/stats reports rank 1's shard copies with no
// process-wide latency or byte figures.
func TestClusterInProcessPeersShareRankZero(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, replicas: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 3; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatal("assign failed")
		}
	}
	resp, err := http.Get(ts.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `knor_shardserve_request_seconds_count{rank="0"}`) {
		t.Fatal("rank 0 carries no fan-out latency series")
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, `rank="1"`) && !strings.HasPrefix(line, "knor_federation_stale") {
			t.Fatalf("in-process rank 1 repeats a process-wide series: %s", line)
		}
	}
	var stats struct {
		Ranks []struct {
			Rank       int     `json:"rank"`
			P50MS      float64 `json:"p50_ms"`
			BytesTotal float64 `json:"bytes_total"`
			Shards     float64 `json:"shards"`
		} `json:"ranks"`
	}
	if code := getJSON(t, ts.URL+"/v1/cluster/stats", &stats); code != http.StatusOK {
		t.Fatalf("cluster/stats: %d", code)
	}
	if len(stats.Ranks) != 2 {
		t.Fatalf("%d ranks, want 2", len(stats.Ranks))
	}
	if r1 := stats.Ranks[1]; r1.P50MS != 0 || r1.BytesTotal != 0 || r1.Shards <= 0 {
		t.Errorf("rank 1 digest %+v: want no process-wide figures, shard copies > 0", r1)
	}
}

// TestClusterStatsEndpoint: /v1/cluster/stats answers the per-rank
// digest with latency quantiles and shard counts, never stale for the
// local rank.
func TestClusterStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, replicas: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 3; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatal("assign failed")
		}
	}
	var stats struct {
		Ranks []struct {
			Rank   int     `json:"rank"`
			Stale  bool    `json:"stale"`
			P50MS  float64 `json:"p50_ms"`
			P99MS  float64 `json:"p99_ms"`
			Shards float64 `json:"shards"`
		} `json:"ranks"`
	}
	if code := getJSON(t, ts.URL+"/v1/cluster/stats", &stats); code != http.StatusOK {
		t.Fatalf("cluster/stats: %d", code)
	}
	if len(stats.Ranks) != 2 {
		t.Fatalf("-machines 2 reports %d ranks, want 2 (one per machine)", len(stats.Ranks))
	}
	for i, r := range stats.Ranks {
		if r.Rank != i || r.Stale {
			t.Fatalf("rank %d digest: %+v", i, r)
		}
		// Replicas 2 over 2 machines: every rank holds a copy.
		if r.Shards <= 0 {
			t.Errorf("rank %d shard copies = %v, want > 0 after publish", i, r.Shards)
		}
	}
	r0 := stats.Ranks[0]
	if r0.P50MS <= 0 || r0.P99MS < r0.P50MS {
		t.Errorf("latency quantiles not populated/ordered: p50=%v p99=%v", r0.P50MS, r0.P99MS)
	}
}

// TestEventsJournalEndpoint: /debug/events serves the structured
// journal with a working since-seq cursor, and cluster activity (a
// publish) lands in it.
func TestEventsJournalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	type eventsPage struct {
		LastSeq uint64 `json:"last_seq"`
		Events  []struct {
			Seq       uint64 `json:"seq"`
			Component string `json:"component"`
			Severity  string `json:"severity"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	var page eventsPage
	if code := getJSON(t, ts.URL+"/debug/events", &page); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if page.LastSeq == 0 || len(page.Events) == 0 {
		t.Fatalf("journal empty after a publish: last_seq=%d n=%d", page.LastSeq, len(page.Events))
	}
	found := false
	for i, ev := range page.Events {
		if ev.Msg == "model published" && ev.Component == "serve" {
			found = true
		}
		if i > 0 && ev.Seq <= page.Events[i-1].Seq {
			t.Fatalf("events not ascending: seq %d after %d", ev.Seq, page.Events[i-1].Seq)
		}
	}
	if !found {
		t.Errorf("no 'model published' event in journal page: %+v", page.Events)
	}
	// Cursor: asking since=last_seq returns nothing new.
	var empty eventsPage
	if code := getJSON(t, ts.URL+"/debug/events?since="+fmt.Sprint(page.LastSeq), &empty); code != http.StatusOK {
		t.Fatalf("events cursor: %d", code)
	}
	for _, ev := range empty.Events {
		if ev.Seq <= page.LastSeq {
			t.Fatalf("cursor returned already-seen seq %d (cursor %d)", ev.Seq, page.LastSeq)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/events?since=bogus", &empty); code != http.StatusBadRequest {
		t.Fatalf("bad since cursor answered %d, want 400", code)
	}
}

// TestTraceDumpIdentity: the /debug/traces dump carries the hex trace
// ID and only non-negative span geometry — the regression surface for
// out-of-order span arrival from stitched cluster traces.
func TestTraceDumpIdentity(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	var dump struct {
		Traces []struct {
			ID      uint64  `json:"id"`
			TraceID string  `json:"trace_id"`
			TotalUS float64 `json:"total_us"`
			Stages  []struct {
				Name    string  `json:"name"`
				StartUS float64 `json:"start_us"`
				DurUS   float64 `json:"dur_us"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no sampled traces")
	}
	for _, tr := range dump.Traces {
		if want := fmt.Sprintf("%016x", tr.ID); tr.TraceID != want {
			t.Errorf("trace_id = %q, want %q", tr.TraceID, want)
		}
		if tr.TotalUS < 0 {
			t.Errorf("trace %d total_us negative: %v", tr.ID, tr.TotalUS)
		}
		for i, st := range tr.Stages {
			if st.StartUS < 0 || st.DurUS < 0 {
				t.Errorf("trace %d stage %q has negative geometry: start=%v dur=%v",
					tr.ID, st.Name, st.StartUS, st.DurUS)
			}
			if i > 0 && st.StartUS < tr.Stages[i-1].StartUS {
				t.Errorf("trace %d stages not sorted by start: %q at %v after %q at %v",
					tr.ID, st.Name, st.StartUS, tr.Stages[i-1].Name, tr.Stages[i-1].StartUS)
			}
		}
	}
}
