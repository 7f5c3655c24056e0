package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/sem"
	"knor/internal/store"
	"knor/internal/telemetry"
	"knor/internal/workload"
)

// Training workloads: one NaturalClusters dataset and one k-means
// configuration, trained in memory (knori-mem) or streamed from a store
// file on a memory budget (knors-file).
const (
	trainRows    = 50_000
	trainDims    = 16
	trainK       = 100
	trainIters   = 20
	trainThreads = 2
	// centroidTol is the oracle's centroid tolerance: the parallel
	// engine merges per-thread sums in a scheduling-dependent order.
	centroidTol = 1e-9
)

func trainSpec(seed int64) workload.Spec {
	return workload.Spec{Kind: workload.NaturalClusters, N: trainRows, D: trainDims,
		Clusters: 10, Spread: 0.05, Seed: seed}
}

func trainConfig(seed int64) kmeans.Config {
	return kmeans.Config{K: trainK, MaxIters: trainIters, Init: kmeans.InitForgy, Seed: seed,
		Prune: kmeans.PruneMTI, Threads: trainThreads}
}

// trainCounts are a call's work counts. DistCalcs and RequestedBytes
// must repeat exactly across the calls of a run. DeviceBytes is
// reported but not checked: the two knors workers share the page
// cache's LRU, so which pages get evicted, and so read again, follows
// their interleaving (measured: a few 4 KiB pages out of 127 MB differ
// between calls).
type trainCounts struct {
	DistCalcs      uint64
	RequestedBytes uint64
	DeviceBytes    uint64
}

func countsOf(res *kmeans.Result) trainCounts {
	var c trainCounts
	for _, st := range res.PerIter {
		c.DistCalcs += st.DistCalcs
		c.RequestedBytes += st.BytesWanted
		c.DeviceBytes += st.BytesRead
	}
	return c
}

// exact drops the counts that are not expected to repeat.
func (c trainCounts) exact() trainCounts {
	c.DeviceBytes = 0
	return c
}

// checkOracle compares a training result with the serial oracle:
// equal iteration count and assignments, centroids within centroidTol.
func checkOracle(got, want *kmeans.Result) error {
	if got.Iters != want.Iters {
		return fmt.Errorf("%d iterations, oracle %d", got.Iters, want.Iters)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Errorf("row %d assigned to %d, oracle %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for i, v := range want.Centroids.Data {
		if diff := math.Abs(got.Centroids.Data[i] - v); !(diff <= centroidTol) {
			return fmt.Errorf("centroid element %d off by %g", i, diff)
		}
	}
	return nil
}

// trainInputs generates the seeded dataset, writes it as a float64
// store file, and computes the serial oracle.
func trainInputs(b *bench) (*matrix.Dense, string, *kmeans.Result, error) {
	data := workload.Generate(trainSpec(b.seed))
	path := filepath.Join(b.work, "train.knor")
	if err := store.WriteDense(data, path, 8); err != nil {
		return nil, "", nil, err
	}
	t0 := time.Now()
	oracle, err := kmeans.RunSerial(data, trainConfig(b.seed))
	if err != nil {
		return nil, "", nil, err
	}
	b.info("dataset %dx%d k=%d: oracle RunSerial %d iterations (converged=%v) in %.2fs",
		trainRows, trainDims, trainK, oracle.Iters, oracle.Converged, time.Since(t0).Seconds())
	return data, path, oracle, nil
}

// trainCall is one timed training call.
type trainCall struct {
	seconds float64
	cpu     float64 // CPU seconds the process spent in the call
	peakMB  float64 // the process's resident peak during the call
	res     *kmeans.Result
	// phases holds the traced per-layer times (seconds), keyed by metric.
	phases map[string]float64
}

// timeCalls runs fn repeatedly until budget seconds have passed (at
// least twice, so the exact-repeat check always has a pair), checking
// each result against the oracle and the work counts against each
// other. Each call starts from a collected heap returned to the OS and
// a reset resident peak, so the garbage of the previous call neither
// runs its GC inside the next one nor raises the next one's peak.
func timeCalls(b *bench, budget float64, oracle *kmeans.Result, fn func() (trainCall, error)) ([]trainCall, error) {
	var calls []trainCall
	start := time.Now()
	pid := os.Getpid()
	for len(calls) < 2 || time.Since(start).Seconds() < budget {
		releaseMemory()
		if err := resetPeakRSS(pid); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		cpu0 := selfCPUSeconds()
		c, err := fn()
		if err != nil {
			return nil, err
		}
		c.cpu = selfCPUSeconds() - cpu0
		if c.peakMB, err = peakRSSMB(pid); err != nil {
			return nil, err
		}
		b.count(checkOracle(c.res, oracle))
		if len(calls) > 0 && countsOf(c.res).exact() != countsOf(calls[0].res).exact() {
			b.problem("work counts differ between calls of one seed: %+v vs %+v",
				countsOf(c.res).exact(), countsOf(calls[0].res).exact())
		}
		calls = append(calls, c)
	}
	return calls, nil
}

// trainMetrics records the end-to-end metrics of a set of timed calls.
func trainMetrics(b *bench, calls []trainCall, setup *setupCosts) {
	secs := callSeconds(calls)
	train := median(secs)
	cpus := make([]float64, len(calls))
	peaks := make([]float64, len(calls))
	for i, c := range calls {
		cpus[i] = c.cpu
		peaks[i] = c.peakMB
	}
	rows := float64(trainRows * calls[0].res.Iters)
	cpu := median(cpus)
	b.info("train_cpu_s %.4f (median of %d calls, quartiles %.4f %.4f) iterations=%d",
		cpu, len(calls), quantile(cpus, 0.25), quantile(cpus, 0.75), calls[0].res.Iters)
	b.info("train_s %.4f wall (median, quartiles %.4f %.4f) rows_per_s %.4g; peak_rss_mb %.1f (median of %d calls, max %.1f)",
		train, quantile(secs, 0.25), quantile(secs, 0.75), rows/train, median(peaks), len(peaks), quantile(peaks, 1))
	b.record("p50_ms", cpu*1e3)
	b.record("rows_per_cpu_s", rows/cpu)
	b.record("peak_rss_mb", median(peaks))
	setup.record(b)
}

// printCounts prints the work counts of a run's calls; timeCalls has
// already checked that the exact ones repeat across them.
func printCounts(b *bench, calls []trainCall) {
	c := countsOf(calls[0].res)
	lo, hi := c.DeviceBytes, c.DeviceBytes
	for _, call := range calls {
		d := countsOf(call.res).DeviceBytes
		lo, hi = min(lo, d), max(hi, d)
	}
	b.info("counts dist_calcs=%d requested_bytes=%d device_bytes=%d..%d (over %d calls)",
		c.DistCalcs, c.RequestedBytes, lo, hi, len(calls))
}

// pruneMetrics records the kmeans layer's work counts for one call.
func pruneMetrics(b *bench, res *kmeans.Result) {
	var dists, pruned, changed uint64
	for _, st := range res.PerIter {
		dists += st.DistCalcs
		pruned += st.PrunedC1
		changed += uint64(st.RowsChanged)
	}
	b.record("kmeans.dist_calcs", float64(dists))
	b.record("kmeans.pruned_rows", float64(pruned))
	b.record("kmeans.rows_changed", float64(changed))
	b.record("kmeans.prune_ratio", 1-float64(dists)/float64(trainRows*trainK*res.Iters))
}

// phaseMedians records the median over calls of each traced phase.
func phaseMedians(b *bench, calls []trainCall) {
	for name := range calls[0].phases {
		xs := make([]float64, len(calls))
		for i, c := range calls {
			xs[i] = c.phases[name]
		}
		b.record(name, median(xs))
	}
}

// ledger checks that the traced layer times account for the traced
// end-to-end time within 10%, failing the run otherwise, and records
// the unaccounted share (over or under) in percent.
func ledger(b *bench, what string, layers, total float64) {
	pct := 100 * layers / total
	b.info("ledger %s: layers %.6g of end-to-end %.6g = %.1f%%", what, layers, total, pct)
	if pct < 90 || pct > 110 {
		b.problem("ledger %s: layers account for %.1f%% of end-to-end, outside 90-110%%", what, pct)
	}
	b.record("ledger.unaccounted_pct", math.Abs(100-pct))
}

// releaseMemory returns freed heap to the OS so the next peak-RSS
// window starts from what is live.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runKnoriMem(b *bench) error {
	_, path, oracle, err := trainInputs(b)
	if err != nil {
		return err
	}
	// Set-up is what cmd/knori does before training: load the matrix
	// from its file into memory.
	var data *matrix.Dense
	setup := &setupCosts{}
	for i := 0; i < setupRepeats; i++ {
		data = nil
		releaseMemory()
		t0, cpu0 := time.Now(), selfCPUSeconds()
		data, err = store.ReadDense(path)
		if err != nil {
			return err
		}
		setup.add(time.Since(t0).Seconds(), selfCPUSeconds()-cpu0)
	}
	cfg := trainConfig(b.seed)
	budget := b.seconds
	if b.trace {
		budget /= 2
	}
	calls, err := timeCalls(b, budget, oracle, func() (trainCall, error) {
		t0 := time.Now()
		res, err := kmeans.Run(data, cfg)
		return trainCall{seconds: time.Since(t0).Seconds(), res: res}, err
	})
	if err != nil {
		return err
	}
	printCounts(b, calls)
	if !b.trace {
		trainMetrics(b, calls, setup)
		return nil
	}

	traced, err := timeCalls(b, budget, oracle, func() (trainCall, error) {
		return tracedKnori(data, cfg)
	})
	if err != nil {
		return err
	}
	phaseMedians(b, traced)
	pruneMetrics(b, traced[0].res)
	train := median(callSeconds(traced))
	ledger(b, "kmeans.assign_s+kmeans.update_s vs train_s",
		b.metrics["kmeans.assign_s"]+b.metrics["kmeans.update_s"], train)
	overhead(b, median(callSeconds(calls)), train)
	return nil
}

// tracedKnori is kmeans.Run driven one phase at a time through the
// engine's public methods, timing the assign pass (LocalPhase) and the
// update (ApplyGlobal) of every iteration.
func tracedKnori(data *matrix.Dense, cfg kmeans.Config) (trainCall, error) {
	t0 := time.Now()
	eng, err := kmeans.NewEngine(data, cfg)
	if err != nil {
		return trainCall{}, err
	}
	var assign, update time.Duration
	res := &kmeans.Result{}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		a := time.Now()
		st, delta := eng.LocalPhase(iter)
		u := time.Now()
		drift := eng.ApplyGlobal(delta)
		assign += u.Sub(a)
		update += time.Since(u)
		st.Drift = drift
		res.PerIter = append(res.PerIter, st)
		res.Iters = iter + 1
		if iter > 0 && (st.RowsChanged == 0 || drift <= cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = eng.Centroids()
	res.Assign = eng.Assign()
	res.SSE = kmeans.SSEOf(data, eng.Centroids(), eng.Assign())
	return trainCall{
		seconds: time.Since(t0).Seconds(),
		res:     res,
		phases:  map[string]float64{"kmeans.assign_s": assign.Seconds(), "kmeans.update_s": update.Seconds()},
	}, nil
}

func callSeconds(calls []trainCall) []float64 {
	xs := make([]float64, len(calls))
	for i, c := range calls {
		xs[i] = c.seconds
	}
	return xs
}

// overhead records how much slower the traced run's median was than
// the untraced one's.
func overhead(b *bench, untraced, traced float64) {
	pct := 100 * (traced - untraced) / untraced
	b.info("trace overhead: untraced %.6g traced %.6g (%+.2f%%)", untraced, traced, pct)
	b.record("trace.overhead_pct", pct)
}

// semConfig is the knors configuration: the page cache holds 1/8 of
// the file and the row cache 1/128, with no prefetching.
func semConfig(seed int64) sem.Config {
	fileBytes := trainRows * trainDims * 8
	return sem.Config{
		Kmeans:         trainConfig(seed),
		PageCacheBytes: fileBytes / 8,
		RowCacheBytes:  fileBytes / 128,
	}
}

func runKnorsFile(b *bench) error {
	data, path, oracle, err := trainInputs(b)
	if err != nil {
		return err
	}
	cfg := semConfig(b.seed)
	// Set-up is writing the store file, then opening the engine on it
	// (which initialises the centroids by reading rows).
	setup := &setupCosts{}
	for i := 0; i < setupRepeats; i++ {
		releaseMemory()
		t0, cpu0 := time.Now(), selfCPUSeconds()
		if err := store.WriteDense(data, path, 8); err != nil {
			return err
		}
		eng, err := sem.NewFromFile(path, cfg)
		if err != nil {
			return err
		}
		setup.add(time.Since(t0).Seconds(), selfCPUSeconds()-cpu0)
		if err := eng.Close(); err != nil {
			return err
		}
	}
	// The generated matrix must not be resident while knors trains.
	data = nil
	budget := b.seconds
	if b.trace {
		budget /= 2
	}
	calls, err := timeCalls(b, budget, oracle, func() (trainCall, error) {
		t0 := time.Now()
		res, err := sem.RunFile(path, cfg)
		return trainCall{seconds: time.Since(t0).Seconds(), res: res}, err
	})
	if err != nil {
		return err
	}
	printCounts(b, calls)
	if !b.trace {
		trainMetrics(b, calls, setup)
		return nil
	}

	var scans []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := scanStore(path, cfg.PageCacheBytes)
		if err != nil {
			return err
		}
		scans = append(scans, s)
	}
	b.record("store.scan_s", median(scans))

	var before, after prom
	traced, err := timeCalls(b, budget, oracle, func() (trainCall, error) {
		before = scrapeDefault()
		c, err := tracedKnors(path, cfg, oracle.Iters)
		after = scrapeDefault()
		return c, err
	})
	if err != nil {
		return err
	}
	phaseMedians(b, traced)
	res := traced[len(traced)-1].res
	pruneMetrics(b, res)
	var hits, active uint64
	for _, st := range res.PerIter {
		hits += st.RowCacheHits
		active += uint64(st.ActiveRows)
	}
	b.record("sem.rowcache_hits", float64(hits))
	b.record("sem.rowcache_hit_ratio", float64(hits)/float64(active))
	c := countsOf(res)
	b.record("store.requested_mb", float64(c.RequestedBytes)/1e6)
	b.record("store.device_read_mb", float64(c.DeviceBytes)/1e6)
	b.record("store.read_amplification", float64(c.DeviceBytes)/float64(c.RequestedBytes))
	pageHits := delta(before, after, "knor_store_page_hits_total", "")
	pageMisses := delta(before, after, "knor_store_page_misses_total", "")
	b.record("store.page_hit_ratio", pageHits/(pageHits+pageMisses))
	b.record("store.merged_reads", delta(before, after, "knor_store_merged_reads_total", ""))
	b.record("store.pages_per_read", histMean(before, after, "knor_store_run_pages"))
	train := median(callSeconds(traced))
	ledger(b, "sem.step_s vs train_s", b.metrics["sem.step_s"], train)
	overhead(b, median(callSeconds(calls)), train)
	return nil
}

// tracedKnors is sem.RunFile driven one iteration at a time, timing
// every Engine.Step. It steps exactly the oracle's iteration count, so
// an engine that converged differently fails the oracle check.
func tracedKnors(path string, cfg sem.Config, iters int) (trainCall, error) {
	t0 := time.Now()
	eng, err := sem.NewFromFile(path, cfg)
	if err != nil {
		return trainCall{}, err
	}
	defer eng.Close()
	var step time.Duration
	for i := 0; i < iters; i++ {
		s := time.Now()
		if err := eng.Step(); err != nil {
			return trainCall{}, err
		}
		step += time.Since(s)
	}
	res, err := eng.Finish()
	if err != nil {
		return trainCall{}, err
	}
	if err := eng.Close(); err != nil {
		return trainCall{}, err
	}
	return trainCall{
		seconds: time.Since(t0).Seconds(),
		res:     res,
		phases:  map[string]float64{"sem.step_s": step.Seconds()},
	}, nil
}

// scanStore times one full pass of Reader.Row over the store file
// through a page cache of the given size.
func scanStore(path string, cacheBytes int) (float64, error) {
	t0 := time.Now()
	f, err := store.Open(path, store.Options{CacheBytes: cacheBytes})
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd := f.Reader()
	for i := 0; i < f.Rows(); i++ {
		if _, err := rd.Row(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// scrapeDefault reads the process-wide telemetry registry the store and
// sem layers report into.
func scrapeDefault() prom {
	var sb strings.Builder
	_ = telemetry.Default.WritePrometheus(&sb) // a strings.Builder write cannot fail
	return parseProm(sb.String())
}
