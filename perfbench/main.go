// Command perfbench is the knor benchmark. One invocation runs one
// workload from a seed for a fixed time, checks every output against
// an oracle, and prints the result as a JSON line:
//
//	perfbench -workload knori-mem -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics named in
// BENCHMARK.json; with -trace 1 it reports the per-layer metrics,
// measured from outside each layer. README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"knor/internal/blas"
)

// bench is the state of one invocation: its inputs, the run's counts of
// checked operations, and the metric values the workload measured.
type bench struct {
	root      string // checkout root (holds BENCHMARK.json)
	knorserve string // built server binary
	work      string // per-run scratch directory, removed at exit
	seed      int64
	seconds   float64
	trace     bool

	attempted, failed int
	problems          []string // failed checks other than wrong answers
	metrics           map[string]float64
}

// setupRepeats is how many times a run repeats its set-up (a matrix
// load, a store write and open, or a server boot); setup_s is the
// median of their CPU seconds.
const setupRepeats = 25

// workloadDef is one BENCHMARK.json workload: its run function and the
// per-layer metrics it does not measure, because it does not run their
// layer (or that part of it). Each entry is a metric name or a prefix
// ending in "."; a traced run reports 0 for them.
type workloadDef struct {
	run  func(*bench) error
	idle []string
}

var workloads = map[string]workloadDef{
	"knori-mem": {runKnoriMem, []string{"sem.", "store.", "edge.", "http.", "server.", "batcher.", "blas.", "shardserve."}},
	// sem.Engine.Step runs the assign pass and the update as one call,
	// so their time is sem.step_s; the kmeans counts are still measured.
	"knors-file": {runKnorsFile, []string{"kmeans.assign_s", "kmeans.update_s",
		"edge.", "http.", "server.", "batcher.", "blas.", "shardserve."}},
	"serve-small": {runServeSmall, []string{"kmeans.", "sem.", "store.", "shardserve."}},
	// The shard batchers are internal: the request latency of the
	// sharded path is shardserve.request_us.
	"serve-wide": {runServeWide, []string{"kmeans.", "sem.", "store.", "batcher.request_us"}},
}

// info prints one human-readable line; the JSON result is always the
// last line of stdout.
func (b *bench) info(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// record stores one metric value under its BENCHMARK.json name.
func (b *bench) record(name string, v float64) { b.metrics[name] = v }

// problem records a failed check that is not a per-operation answer.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	b.info("CHECK FAILED: %s", msg)
}

// count records the outcome of one checked operation.
func (b *bench) count(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			b.info("wrong answer: %v", err)
		}
	}
}

// isIdle reports whether a per-layer metric belongs to a layer the
// workload does not run.
func (w workloadDef) isIdle(metric string) bool {
	for _, p := range w.idle {
		if metric == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(metric, p)) {
			return true
		}
	}
	return false
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		root      = flag.String("root", ".", "checkout root holding BENCHMARK.json")
		knorserve = flag.String("knorserve", "", "knorserve binary built from the checkout")
		name      = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "workload seed: inputs are a function of it")
		secs      = flag.Float64("seconds", 10, "measured seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	if err := run(*root, *knorserve, *name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, knorserve, name string, seed int64, secs float64, trace bool) error {
	def, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{
		root: root, knorserve: knorserve, work: work,
		seed: seed, seconds: secs, trace: trace,
		metrics: map[string]float64{},
	}
	b.info("env gomaxprocs=%d nproc=%d blas=%s asm=%v go=%s git=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), blas.KernelName(), blas.AsmEnabled(),
		runtime.Version(), gitSHA(root))
	b.info("workload %s seed=%d seconds=%g trace=%v", name, seed, secs, trace)
	start := time.Now()
	if err := def.run(b); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		idle := trace && def.isIdle(m.Name)
		if ok && idle {
			return fmt.Errorf("workload measured %q, which it declares idle", m.Name)
		}
		if !ok && !idle {
			return fmt.Errorf("workload did not measure %q", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.info("metric %-28s %14.6g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b.info("ops attempted=%d succeeded=%d failed=%d correct=%v wall=%.1fs",
		res.Attempted, res.Attempted-res.Failed, res.Failed, res.Correct, time.Since(start).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// gitSHA stamps the source revision; a checkout without git history
// (an exported tree) reports "none".
func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
