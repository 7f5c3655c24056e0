package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/workload"
)

// serveShape is one serving workload: the model the server loads at
// boot, the request size, and the server's flags.
type serveShape struct {
	k, d       int
	rowsPerReq int
	precision  kmeans.Precision
	machines   int
	flags      []string
}

const (
	modelName = "bench"
	// corpusBodies is the number of distinct pre-encoded requests the
	// clients cycle through.
	corpusBodies = 1024
	// clients is the closed loop's connection count: each sends its next
	// request when the previous answer arrives.
	clients = 2
	warmup  = 500 * time.Millisecond
	// probeEvery is how often the traced run times a GET /healthz round
	// trip; every tracePolls-th probe also drains /debug/traces (the
	// server keeps only the last 16 traces).
	probeEvery = 20 * time.Millisecond
	tracePolls = 5
)

func runServeSmall(b *bench) error {
	return runServe(b, serveShape{k: 100, d: 16, rowsPerReq: 4, precision: kmeans.Precision64, machines: 1})
}

func runServeWide(b *bench) error {
	return runServe(b, serveShape{k: 4096, d: 32, rowsPerReq: 16, precision: kmeans.Precision32, machines: 2,
		flags: []string{"-machines", "2", "-precision", "32"}})
}

// assignReq and assignResp mirror knorserve's /v1/assign JSON.
type assignReq struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

type assignResp struct {
	Version  int       `json:"version"`
	Clusters []int32   `json:"clusters"`
	SqDists  []float64 `json:"sqdists"`
}

// corpus is the pre-encoded request set with the oracle's answers.
type corpus struct {
	bodies [][]byte
	want   []assignResp
}

// serveInputs writes the seeded model snapshot into dir and builds the
// request corpus, answering it with an in-process single-node assigner
// at the workload's precision.
func serveInputs(b *bench, sh serveShape, dir string) (*corpus, error) {
	spec := workload.Spec{Kind: workload.NaturalClusters, N: 4 * sh.k, D: sh.d,
		Clusters: 10, Spread: 0.05, Seed: b.seed}
	cfg, err := kmeans.Config{K: sh.k, Init: kmeans.InitForgy, Seed: b.seed}.WithDefaults(spec.N)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(4)
	if _, err := reg.Publish(modelName, kmeans.InitCentroidsFor(workload.Generate(spec), cfg)); err != nil {
		return nil, err
	}
	if err := serve.SaveRegistry(reg, filepath.Join(dir, "registry.json")); err != nil {
		return nil, err
	}

	oracle := serve.NewAssigner(reg, serve.BatcherOptions{}, sh.precision)
	defer oracle.Close()
	qs := workload.NewQueryStream(spec, b.seed+1_000_003)
	c := &corpus{}
	for i := 0; i < corpusBodies; i++ {
		rows := qs.Next(sh.rowsPerReq)
		req := assignReq{Model: modelName, Rows: make([][]float64, rows.Rows())}
		for r := range req.Rows {
			req.Rows[r] = rows.Row(r)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		as, err := oracle.AssignRows(modelName, rows)
		if err != nil {
			return nil, err
		}
		want := assignResp{Version: as[0].Version, Clusters: make([]int32, len(as)), SqDists: make([]float64, len(as))}
		for r, a := range as {
			want.Clusters[r] = a.Cluster
			want.SqDists[r] = a.SqDist
		}
		c.bodies = append(c.bodies, body)
		c.want = append(c.want, want)
	}
	return c, nil
}

// check compares one response body with the oracle's answer for the
// request it answered; SqDists must match bit for bit.
func (c *corpus) check(body int, status int, resp []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("request %d: HTTP %d: %s", body, status, bytes.TrimSpace(resp))
	}
	var got assignResp
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("request %d: %w", body, err)
	}
	want := c.want[body]
	if got.Version != want.Version || len(got.Clusters) != len(want.Clusters) || len(got.SqDists) != len(want.SqDists) {
		return fmt.Errorf("request %d: got version %d with %d answers, oracle version %d with %d",
			body, got.Version, len(got.Clusters), want.Version, len(want.Clusters))
	}
	for i := range want.Clusters {
		if got.Clusters[i] != want.Clusters[i] ||
			math.Float64bits(got.SqDists[i]) != math.Float64bits(want.SqDists[i]) {
			return fmt.Errorf("request %d row %d: got (%d, %v), oracle (%d, %v)",
				body, i, got.Clusters[i], got.SqDists[i], want.Clusters[i], want.SqDists[i])
		}
	}
	return nil
}

// server is one running knorserve child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stdout chan struct{}
	stderr bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

// startServer boots knorserve on a loopback port with a private copy of
// the snapshot directory, and returns once /readyz answers 200 along
// with the wall seconds that took from exec and the CPU seconds the
// server spent in them.
func startServer(b *bench, snapshot string, sh serveShape, traceSample int) (*server, float64, float64, error) {
	dir, err := os.MkdirTemp(b.work, "state-")
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := os.ReadFile(filepath.Join(snapshot, "registry.json"))
	if err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), raw, 0o644); err != nil {
		return nil, 0, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-state", dir,
		"-trace-sample", strconv.Itoa(traceSample)}, sh.flags...)
	s := &server{cmd: exec.Command(b.knorserve, args...), stdout: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "knorserve listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	deadline := time.After(60 * time.Second)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.stdout:
		s.stop()
		return nil, 0, 0, fmt.Errorf("knorserve exited before listening: %s", s.stderr.String())
	case <-deadline:
		s.stop()
		return nil, 0, 0, fmt.Errorf("knorserve did not listen within 60s")
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-deadline:
			s.stop()
			return nil, 0, 0, fmt.Errorf("knorserve not ready within 60s")
		case <-time.After(time.Millisecond):
		}
	}
	wall := time.Since(t0).Seconds()
	cpu, err := taskCPUSeconds(s.pid())
	if err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	return s, wall, cpu, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, lets the server drain, and waits for it to exit
// (killing it if it does not within 20s). Later calls return the first
// call's outcome.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below
		done := make(chan error, 1)
		go func() {
			<-s.stdout
			done <- s.cmd.Wait()
		}()
		select {
		case s.stopErr = <-done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill() // Wait below reports the outcome
			s.stopErr = <-done
		}
	})
	return s.stopErr
}

// get fetches a GET endpoint's body.
func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, err
}

func (s *server) scrape() (prom, error) {
	body, err := s.get("/metrics")
	return parseProm(string(body)), err
}

// sample is one request of the closed loop.
type sample struct {
	body    int
	latency time.Duration
	status  int
	resp    []byte
	err     error
}

// closedLoop drives /v1/assign from `clients` connections for dur, each
// sending its next request as soon as the previous answer arrives.
func closedLoop(s *server, c *corpus, dur time.Duration) ([]sample, time.Duration) {
	var (
		wg  sync.WaitGroup
		out = make([][]sample, clients)
	)
	start := time.Now()
	deadline := start.Add(dur)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			for i := g; time.Now().Before(deadline); i += clients {
				body := i % len(c.bodies)
				t0 := time.Now()
				sm := sample{body: body}
				resp, err := client.Post(s.base+"/v1/assign", "application/json", bytes.NewReader(c.bodies[body]))
				if err == nil {
					sm.status = resp.StatusCode
					sm.resp, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				sm.latency = time.Since(t0)
				sm.err = err
				out[g] = append(out[g], sm)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, elapsed
}

// loadStats summarises a checked closed-loop phase.
type loadStats struct {
	sent, ok  int
	elapsed   time.Duration
	latencyMS []float64
	p50, p99  float64
	reqPerSec float64
}

// checkLoad verifies every answer of a phase against the oracle,
// counting each request as one operation.
func checkLoad(b *bench, c *corpus, samples []sample, elapsed time.Duration) loadStats {
	st := loadStats{sent: len(samples), elapsed: elapsed}
	for _, sm := range samples {
		err := sm.err
		if err == nil {
			err = c.check(sm.body, sm.status, sm.resp)
		}
		b.count(err)
		if err == nil {
			st.ok++
		}
		st.latencyMS = append(st.latencyMS, float64(sm.latency)/1e6)
	}
	st.p50 = quantile(st.latencyMS, 0.5)
	st.p99 = quantile(st.latencyMS, 0.99)
	st.reqPerSec = float64(st.ok) / elapsed.Seconds()
	return st
}

func (st loadStats) report(b *bench, phase string) {
	beyond := st.sent - int(math.Ceil(0.99*float64(st.sent)))
	b.info("%s: sent=%d succeeded=%d failed=%d in %.2fs: assign_rps %.1f assign_p50_ms %.4f client.p99_ms %.4f (n=%d, %d beyond p99)",
		phase, st.sent, st.ok, st.sent-st.ok, st.elapsed.Seconds(), st.reqPerSec, st.p50, st.p99, st.sent, beyond)
}

func runServe(b *bench, sh serveShape) error {
	snapshot := filepath.Join(b.work, "snapshot")
	if err := os.MkdirAll(snapshot, 0o755); err != nil {
		return err
	}
	c, err := serveInputs(b, sh, snapshot)
	if err != nil {
		return err
	}
	b.info("model k=%d d=%d, %d rows/request, %d pre-encoded requests, flags %v",
		sh.k, sh.d, sh.rowsPerReq, len(c.bodies), sh.flags)

	// Set-up: exec to /readyz 200, setupRepeats boots; the last boot
	// serves the load.
	setup := &setupCosts{}
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		s, wall, cpu, err := startServer(b, snapshot, sh, 0)
		if err != nil {
			return err
		}
		setup.add(wall, cpu)
		if i < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stop knorserve: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()
	budget := time.Duration(b.seconds * float64(time.Second))
	if b.trace {
		budget /= 2
	}
	closedLoop(srv, c, warmup)
	if err := resetPeakRSS(srv.pid()); err != nil {
		return fmt.Errorf("reset server peak RSS: %w", err)
	}
	cpu0, err := taskCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	samples, elapsed := closedLoop(srv, c, budget)
	cpu1, err := taskCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	peak, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	st := checkLoad(b, c, samples, elapsed)
	st.report(b, "untraced")
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop knorserve: %w", err)
	}
	if !b.trace {
		rowsPerCPU := float64(st.ok*sh.rowsPerReq) / (cpu1 - cpu0)
		b.info("peak_rss_mb %.1f rows_per_cpu_s %.1f (server CPU %.2fs)", peak, rowsPerCPU, cpu1-cpu0)
		b.record("p50_ms", st.p50)
		b.record("rows_per_cpu_s", rowsPerCPU)
		b.record("peak_rss_mb", peak)
		setup.record(b)
		return nil
	}
	return tracedServe(b, sh, c, snapshot, budget, st)
}

// traceStages accumulates /debug/traces stage durations by stage name
// over distinct traces.
type traceStages struct {
	seen   map[uint64]bool
	sumUS  map[string]float64
	countN map[string]int
}

func (t *traceStages) add(body []byte) error {
	var dump struct {
		Traces []struct {
			ID     uint64 `json:"id"`
			Stages []struct {
				Name  string  `json:"name"`
				DurUS float64 `json:"dur_us"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		return err
	}
	for _, tr := range dump.Traces {
		if t.seen[tr.ID] {
			continue
		}
		t.seen[tr.ID] = true
		for _, st := range tr.Stages {
			name := st.Name
			if strings.HasPrefix(name, "shard_") {
				name = "shard"
			}
			t.sumUS[name] += st.DurUS
			t.countN[name]++
		}
	}
	return nil
}

func (t *traceStages) mean(name string) float64 {
	if t.countN[name] == 0 {
		return 0
	}
	return t.sumUS[name] / float64(t.countN[name])
}

// probe runs beside the traced closed loop until stop closes: it times
// GET /healthz round trips (the HTTP and loopback cost without a
// handler) and drains /debug/traces into stages.
func probe(srv *server, stages *traceStages, roundtrips *[]float64, stop chan struct{}) error {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	for n := 1; ; n++ {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := client.Get(srv.base + "/healthz")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		*roundtrips = append(*roundtrips, float64(time.Since(t0))/1e3)
		if n%tracePolls == 0 {
			body, err := srv.get("/debug/traces")
			if err != nil {
				return err
			}
			if err := stages.add(body); err != nil {
				return err
			}
		}
	}
}

// tracedServe boots a second server with every request traced and
// drives the same closed loop in two windows of half the budget each.
// The first carries only /v1/assign traffic (and the one /metrics
// scrape that opens it): its /metrics deltas give the handler, edge,
// batcher, shard and GEMM figures. The second adds a probe connection
// that times GET /healthz round trips and drains /debug/traces for the
// batcher's queue-wait and coalesce spans.
func tracedServe(b *bench, sh serveShape, c *corpus, snapshot string, budget time.Duration, untraced loadStats) error {
	srv, _, _, err := startServer(b, snapshot, sh, 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	closedLoop(srv, c, warmup)
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	cpu0, err := taskCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	samples, elapsed := closedLoop(srv, c, budget/2)
	cpu1, err := taskCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	st := checkLoad(b, c, samples, elapsed)
	st.report(b, "traced")

	stages := &traceStages{seen: map[uint64]bool{}, sumUS: map[string]float64{}, countN: map[string]int{}}
	var roundtrips []float64
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		polled <- probe(srv, stages, &roundtrips, stop)
	}()
	probed, probedElapsed := closedLoop(srv, c, budget/2)
	close(stop)
	if err := <-polled; err != nil {
		return fmt.Errorf("probe traced server: %w", err)
	}
	checkLoad(b, c, probed, probedElapsed).report(b, "traced, probed")
	b.info("traces collected: %d, /healthz round trips: %d", len(stages.seen), len(roundtrips))

	// The edge is the server's /v1/assign handler time outside the
	// assign path: body decode, row conversion and response encode.
	handlerUS := 1e6 * histMean(before, after, "knor_http_request_seconds")
	var pathUS float64
	if sh.machines > 1 {
		b.record("shardserve.shard_us", 1e6*histMean(before, after, "knor_shardserve_shard_seconds"))
		b.record("shardserve.minreduce_us", 1e6*histMean(before, after, "knor_shardserve_minreduce_seconds"))
		b.record("shardserve.request_us", 1e6*histMean(before, after, "knor_shardserve_request_seconds"))
		b.record("shardserve.skew_retries", delta(before, after, "knor_shardserve_skew_retries_total", ""))
		pathUS = b.metrics["shardserve.request_us"]
	} else {
		b.record("batcher.request_us", 1e6*histMean(before, after, "knor_serve_request_seconds"))
		pathUS = b.metrics["batcher.request_us"]
	}
	b.record("http.handler_us", handlerUS)
	b.record("edge.codec_us", handlerUS-pathUS)
	b.record("server.cpu_us_per_req", 1e6*(cpu1-cpu0)/float64(st.sent))
	decode, encode, err := edgeCosts(c)
	if err != nil {
		return err
	}
	b.info("reference, not the server's: this process decodes a request body in %.1f us and encodes an answer in %.1f us",
		decode, encode)

	b.record("batcher.queue_wait_us", stages.mean("enqueue"))
	b.record("batcher.coalesce_us", stages.mean("coalesce"))
	b.record("batcher.flushes", delta(before, after, "knor_serve_flushes_total", ""))
	b.record("batcher.rows_per_flush", histMean(before, after, "knor_serve_batch_rows"))
	b.record("batcher.gemm_us", 1e6*histMean(before, after, "knor_serve_gemm_seconds"))
	gemmSecs := delta(before, after, "knor_serve_gemm_seconds_sum", "")
	gemmRows := delta(before, after, "knor_serve_batch_rows_sum", "")
	// Computed, not counted: 2·rows·(k/shards)·d flops per shard flush
	// over the summed GEMM wall time.
	gflops := 0.0
	if gemmSecs > 0 {
		gflops = 2 * gemmRows * float64(sh.k/sh.machines) * float64(sh.d) / gemmSecs / 1e9
	}
	b.record("blas.gemm_gflops", gflops)
	b.record("blas.asm_dispatches", delta(before, after, "knor_blas_gemm_dispatch_total", "asm"))

	b.record("http.roundtrip_us", median(roundtrips))
	ledger(b, "http.handler_us + http.roundtrip_us vs client mean (us)",
		handlerUS+b.metrics["http.roundtrip_us"], 1e3*mean(st.latencyMS))
	overhead(b, untraced.p50, st.p50)
	return nil
}

// edgeCosts times, in this process, the codec work knorserve's edge
// does: decoding a request body (json.Unmarshal into [][]float64, then
// matrix.FromRows) and encoding an answer, in microseconds per request,
// averaged over passes of the whole corpus. It is printed as a
// reference beside the server's own edge.codec_us.
func edgeCosts(c *corpus) (decodeUS, encodeUS float64, err error) {
	const minTime = 200 * time.Millisecond
	var n int
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minTime {
		for _, body := range c.bodies {
			var req assignReq
			if err := json.Unmarshal(body, &req); err != nil {
				return 0, 0, err
			}
			if _, err := matrix.FromRows(req.Rows); err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	decodeUS = float64(time.Since(t0).Microseconds()) / float64(n)
	var buf bytes.Buffer
	n = 0
	t0 = time.Now()
	for n == 0 || time.Since(t0) < minTime {
		for _, want := range c.want {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	encodeUS = float64(time.Since(t0).Microseconds()) / float64(n)
	return decodeUS, encodeUS, nil
}
