package shardserve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"knor/internal/blas"
	"knor/internal/cluster"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// ErrShardUnavailable wraps fan-out errors where every replica of some
// shard group is dead: the global argmin cannot be computed because a
// centroid range answered nowhere (its rows could hold the true
// nearest centroid). Errors carry the group's [lo,hi) centroid range,
// confining the blast radius to that range's models; the HTTP layer
// maps the error to 503. Recovery of any one replica restores exact
// answers.
var ErrShardUnavailable = errors.New("shardserve: shard group unavailable")

// skewRetries bounds how often a fan-out is retried when a publish
// lands mid-flight and shard answers straddle two versions; retry i
// backs off i·skewBackoff first, so a burst of publishes can drain.
// Publishes are rare relative to queries, so this is ample headroom —
// but a publisher sustaining less than a fan-out round trip between
// publishes indefinitely can still starve reads; consistent reads
// under that regime need publish-side pacing, not more retries.
const (
	skewRetries = 16
	skewBackoff = 100 * time.Microsecond
)

// AssignerOf is the fan-out assignment router: machine 0's
// serve.BatcherOf answers the shard groups placed on this process, and
// every other machine is asked over the Hub — queries fanned out to
// every shard group holding the model and folded into the global
// argmin as the groups answer (cluster.CombineMin — associative and
// commutative, so arrival order never changes the result).
// Bit-identical to the single-node serve.BatcherOf for any machine
// count: shards report raw distances, the cancellation clamp is
// applied once after the global min, and ties break on the lowest
// global centroid index exactly as the single-node ascending scan
// does.
//
// Failover: every replica of a shard holds the same centroid rows at
// the same version, so a shard group's answer is replica-independent —
// the goroutine serving group s walks the plan's replica list, skips
// machines whose kill switch is down, and retries the next replica on
// error. Only a group with no answering replica fails the fan-out
// (ErrShardUnavailable).
type AssignerOf[T blas.Float] struct {
	sr   *ShardRegistry
	bat  *serve.BatcherOf[T] // machine 0
	opts serve.BatcherOptions

	mu       sync.Mutex
	inflight map[string]int

	requests  telemetry.Counter
	rows      telemetry.Counter
	rejected  telemetry.Counter
	failovers telemetry.Counter
}

// NewAssignerOf starts the sharded assignment path at element type T.
// opts configures machine 0's shard batcher (MaxBatch, MaxWait,
// Threads, Quantize); peers take theirs from PeerOptions. ModelQuota
// is enforced here at the fan-out edge — a rejected request must burn
// zero GEMM time on ANY shard — so the shard batcher runs unlimited,
// and RawSqDist is forced on (the combiner clamps). The shard batcher
// also runs Internal: the edge instruments (request counts, latency,
// in-flight) are reported here, once per request, never per shard.
// Close stops machine 0's batcher; the registry owns the peers.
func NewAssignerOf[T blas.Float](sr *ShardRegistry, opts serve.BatcherOptions) *AssignerOf[T] {
	shardOpts := opts
	shardOpts.RawSqDist = true
	shardOpts.ModelQuota = 0
	shardOpts.Internal = true
	shardOpts.Tracer = nil
	a := &AssignerOf[T]{
		sr:       sr,
		opts:     opts,
		inflight: map[string]int{},
	}
	a.bat = serve.NewBatcherOf[T](sr.Registry(0), shardOpts)
	return a
}

// NewAssigner builds the sharded assignment path at the requested
// precision, behind the precision-independent serve.Assigner interface
// knorserve programs against.
func NewAssigner(sr *ShardRegistry, opts serve.BatcherOptions, p kmeans.Precision) serve.Assigner {
	if p == kmeans.Precision32 {
		return NewAssignerOf[float32](sr, opts)
	}
	return NewAssignerOf[float64](sr, opts)
}

// shardAnswer is one shard's contribution to a fan-out.
type shardAnswer struct {
	shard   int
	assigns []serve.Assignment
	err     error
}

// Assign answers one query row (blocking until its fan-out completes).
func (a *AssignerOf[T]) Assign(model string, row []T) (serve.Assignment, error) {
	m := matrix.New[T](1, len(row))
	copy(m.Data, row)
	as, err := a.AssignBatch(model, m)
	if err != nil {
		return serve.Assignment{}, err
	}
	return as[0], nil
}

// AssignBatch answers every row of rows against the named model by
// fanning the batch out to the model's shards. The rows matrix must
// not be mutated until the call returns.
func (a *AssignerOf[T]) AssignBatch(model string, rows *matrix.Mat[T]) ([]serve.Assignment, error) {
	if rows.Rows() == 0 {
		return nil, nil
	}
	a.mu.Lock()
	if q := a.opts.ModelQuota; q > 0 && a.inflight[model] >= q {
		a.mu.Unlock()
		a.rejected.Inc()
		telRejected.Inc()
		return nil, fmt.Errorf("%w: model %q has %d requests in flight", serve.ErrOverloaded, model, q)
	}
	a.inflight[model]++
	a.mu.Unlock()
	telInflight.With(model).Inc()
	defer func() {
		telInflight.With(model).Dec()
		a.mu.Lock()
		if a.inflight[model]--; a.inflight[model] == 0 {
			delete(a.inflight, model)
		}
		a.mu.Unlock()
	}()
	tr := a.opts.Tracer.Sample()
	start := time.Now()
	var lastErr error
	for try := 0; try < skewRetries; try++ {
		if try > 0 {
			telSkewRetries.Inc()
			time.Sleep(time.Duration(try) * skewBackoff)
		}
		out, retry, err := a.fanout(model, rows, tr)
		if err != nil {
			return nil, err
		}
		if !retry {
			done := time.Now()
			tr.Span("reply", done, done)
			a.opts.Tracer.Done(tr)
			telRequestSeconds.Observe(done.Sub(start).Seconds())
			a.requests.Inc()
			a.rows.Add(uint64(rows.Rows()))
			telRequests.Inc()
			telRows.Add(uint64(rows.Rows()))
			return out, nil
		}
		lastErr = fmt.Errorf("shardserve: model %q: shard versions skewed by concurrent publish", model)
	}
	return nil, lastErr
}

// fanout runs one fan-out attempt: every shard group answers against
// its latest snapshot (failing over across its replicas), answers are
// folded into the running global min as they arrive (reduction
// overlapping the slower groups' GEMMs), and a version check detects a
// publish landing mid-flight — the caller retries, since the plan and
// the shard snapshots must describe the same version for the
// local→global index mapping to make sense.
func (a *AssignerOf[T]) fanout(model string, rows *matrix.Mat[T], tr *telemetry.Trace) (out []serve.Assignment, retry bool, err error) {
	plan, ok := a.sr.GetPlan(model)
	if !ok {
		return nil, false, fmt.Errorf("shardserve: unknown model %q", model)
	}
	shards := len(plan.Offsets) - 1
	n := rows.Rows()

	dispatch := time.Now()
	answers := make(chan shardAnswer, shards)
	var localTraced atomic.Bool
	for s := 0; s < shards; s++ {
		go func(s int) {
			as, err := a.answerShard(model, s, plan, rows, tr, &localTraced)
			telShardSeconds.With(strconv.Itoa(s)).Observe(time.Since(dispatch).Seconds())
			answers <- shardAnswer{shard: s, assigns: as, err: err}
		}(s)
	}

	pairs := make([]cluster.MinPair, n)
	for i := range pairs {
		pairs[i].Index = -1
	}
	src := make([]cluster.MinPair, n)
	var reduceStart, reduceEnd time.Time
	var reduceTotal time.Duration
	for done := 0; done < shards; done++ {
		ans := <-answers
		tr.Span(fmt.Sprintf("shard_%d", ans.shard), dispatch, time.Now())
		if err != nil || retry {
			continue // drain remaining shards before returning
		}
		if ans.err != nil {
			err = ans.err
			continue
		}
		lo := plan.Offsets[ans.shard]
		for i, as := range ans.assigns {
			if as.Version != plan.Version {
				retry = true
				break
			}
			src[i] = cluster.MinPair{Index: int32(lo) + as.Cluster, Dist: as.SqDist}
		}
		if retry {
			continue
		}
		cs := time.Now()
		cluster.CombineMin(pairs, src)
		ce := time.Now()
		if reduceStart.IsZero() {
			reduceStart = cs
		}
		reduceEnd = ce
		reduceTotal += ce.Sub(cs)
	}
	if !reduceEnd.IsZero() {
		telMinReduceSeconds.Observe(reduceTotal.Seconds())
		tr.Span("min_allreduce", reduceStart, reduceEnd)
	}
	if err != nil {
		// A shard error can itself be plan skew: a republish that
		// shrank k, or a rebalance after a membership change, drops
		// shard copies from machines the old plan still points at. If
		// the plan moved while we were in flight (version or gen),
		// retry with the new one instead of surfacing the transient
		// error.
		if p, ok := a.sr.GetPlan(model); ok && (p.Version != plan.Version || p.Gen != plan.Gen) {
			return nil, true, nil
		}
		return nil, false, err
	}
	if retry {
		return nil, true, nil
	}
	out = make([]serve.Assignment, n)
	for i, p := range pairs {
		d := p.Dist
		if d < 0 { // numerical cancellation, clamped once globally
			d = 0
		}
		out[i] = serve.Assignment{Cluster: p.Index, SqDist: d, Version: plan.Version}
	}
	return out, false, nil
}

// answerShard answers shard group s by walking its replica list:
// machines with the kill switch down are skipped, an erroring replica
// fails over to the next, and every pass past the preferred replica
// counts as a failover. All replicas hold identical centroid rows at
// identical versions, so whichever answers first is THE answer. Only a
// group with no answering replica errors, carrying its centroid range.
func (a *AssignerOf[T]) answerShard(model string, s int, plan Plan, rows *matrix.Mat[T], tr *telemetry.Trace, localTraced *atomic.Bool) ([]serve.Assignment, error) {
	var lastErr error
	var skipped []int // replicas passed over as down
	for i, m := range plan.Replicas[s] {
		if i > 0 {
			a.failovers.Inc()
			telFailovers.With(strconv.Itoa(s)).Inc()
			telemetry.Log("shardserve", telemetry.SevWarn, "failover",
				telemetry.F("model", model), telemetry.F("shard", s), telemetry.F("to_machine", m))
		}
		if a.sr.MachineDown(m) {
			lastErr = fmt.Errorf("machine %d down", m)
			skipped = append(skipped, m)
			continue
		}
		as, err := a.askReplica(model, s, m, rows, tr, localTraced)
		if err == nil {
			return as, nil
		}
		lastErr = err
	}
	// The kill switches are read one replica at a time, so the walk can
	// find every replica down although they never were all down at once
	// (one revived as the next died). Ask the ones that came back.
	for _, m := range skipped {
		if a.sr.MachineDown(m) {
			continue
		}
		as, err := a.askReplica(model, s, m, rows, tr, localTraced)
		if err == nil {
			return as, nil
		}
		lastErr = err
	}
	telUnavailable.Inc()
	telemetry.Log("shardserve", telemetry.SevError, "shard unavailable",
		telemetry.F("model", model), telemetry.F("shard", s), telemetry.F("last_err", lastErr))
	return nil, fmt.Errorf("%w: model %q shard %d (centroid rows [%d,%d)): %v",
		ErrShardUnavailable, model, s, plan.Offsets[s], plan.Offsets[s+1], lastErr)
}

// askReplica answers shard group s on machine m. Machine 0 is this
// process's batcher. Every other machine is a peer behind the hub: the
// query rows' exact bits ride over the transport, the peer's batcher
// answers from its pushed shard snapshot, and an RPC error (dead peer,
// timeout) fails over like any replica error. A sampled trace rides to
// the peers and comes back with their decode/GEMM/encode spans
// stitched in; locally it goes through the batcher of the first group
// answered here (localTraced), so the enqueue/coalesce/GEMM stages
// appear once.
func (a *AssignerOf[T]) askReplica(model string, s, m int, rows *matrix.Mat[T], tr *telemetry.Trace, localTraced *atomic.Bool) ([]serve.Assignment, error) {
	key := ShardKey(model, s)
	if m != 0 {
		payload := netcluster.AppendFloats(nil, rows.Data)
		return a.sr.hub.AssignRemote(m, key, byte(blas.ElemBytes[T]()), rows.Rows(), rows.Cols(), payload, tr)
	}
	if tr != nil && !localTraced.CompareAndSwap(false, true) {
		tr = nil
	}
	return a.bat.AssignBatchTraced(key, rows, tr)
}

// Failovers reports how many times a fan-out passed over a shard
// group's preferred replica (dead or erring) to a backup.
func (a *AssignerOf[T]) Failovers() uint64 { return a.failovers.Load() }

// AssignRows answers float64 query rows regardless of the assigner's
// element type, converting once when T is narrower — the
// precision-independent entry the HTTP server uses.
func (a *AssignerOf[T]) AssignRows(model string, rows *matrix.Dense) ([]serve.Assignment, error) {
	if m, ok := any(rows).(*matrix.Mat[T]); ok {
		return a.AssignBatch(model, m)
	}
	return a.AssignBatch(model, matrix.Convert[T](rows))
}

// Stats reports the fan-out edge's counters and latency quantiles
// (read from knor_shardserve_request_seconds). Flushes and Queued cover
// machine 0's batcher only — not the fan-out's logical flush count:
// peers batch their shares independently and count their flushes in
// their own process's knor_serve_flushes_total. When machine 0 holds
// no shard group (killed, or placed around), both stop moving while
// the peers do the work.
func (a *AssignerOf[T]) Stats() serve.BatcherStats {
	bst := a.bat.Stats()
	st := serve.BatcherStats{
		Requests: a.requests.Load(),
		Rows:     a.rows.Load(),
		Rejected: a.rejected.Load(),
		Flushes:  bst.Flushes,
		Queued:   bst.Queued,
	}
	return st.WithLatency(telRequestSeconds)
}

// InFlight snapshots the per-model in-flight request counts at the
// fan-out edge (each distributed request counted once, not per shard).
func (a *AssignerOf[T]) InFlight() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.inflight))
	for m, n := range a.inflight {
		out[m] = n
	}
	return out
}

// Flush synchronously answers everything queued on machine 0 and tells
// every peer whose kill switch is up to drain its batchers (one way: a
// peer request still in decode when the FrameFlush lands waits for the
// next flush or MaxWait).
func (a *AssignerOf[T]) Flush() {
	a.bat.Flush()
	for m := 1; m < a.sr.Machines(); m++ {
		if !a.sr.MachineDown(m) {
			_ = a.sr.hub.Flush(m) // a dead peer has nothing to drain
		}
	}
}

// Close rejects new requests and stops machine 0's batcher.
func (a *AssignerOf[T]) Close() { a.bat.Close() }

var _ serve.Assigner = (*AssignerOf[float64])(nil)
