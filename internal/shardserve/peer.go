package shardserve

import (
	"fmt"
	"sync"
	"time"

	"knor/internal/cluster"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/simclock"
	"knor/internal/telemetry"
)

// PeerOptions configure a worker peer's serve loop.
type PeerOptions struct {
	// Batcher configures the peer's shard batchers (MaxBatch, MaxWait,
	// Threads, Quantize). The peer forces the shard-role settings
	// machine 0's batcher uses — RawSqDist on (the coordinator clamps
	// once after the global min), no per-model quota (enforced at the
	// fan-out edge), Internal instruments — so every replica computes
	// exactly what machine 0 would.
	Batcher serve.BatcherOptions
	// PulseEvery is the heartbeat cadence (default: a quarter of the
	// topology's pulse timeout, matching the hub's clock).
	PulseEvery time.Duration
}

// StartLocalPeers runs an m-machine serving cluster inside this
// process: ranks 1..m-1 of a netcluster.SimGroup each run ServePeer
// with opts on their own goroutine, and rank 0 — the coordinator's end,
// for a ShardRegistry's Options.Transport — is returned. Every frame
// goes through the wire codec exactly as it would over TCP. Closing the
// returned transport closes the whole group and returns once every
// peer has stopped.
//
// The peers share this process and its telemetry registry, so they
// publish no metrics of their own: their batcher and transport work is
// counted in this process's registry, and FederateMetrics reports them
// without families rather than repeating it under N ranks.
func StartLocalPeers(m int, opts PeerOptions) netcluster.Transport {
	g := netcluster.NewSimGroup(cluster.New(m, simclock.DefaultCostModel()))
	lp := &localPeers{SimTransport: g.Transport(0)}
	for r := 1; r < m; r++ {
		lp.wg.Add(1)
		go func(tr netcluster.Transport) {
			defer lp.wg.Done()
			if err := servePeer(tr, opts, true); err != nil {
				telemetry.Log("shardserve", telemetry.SevError, "local peer stopped",
					telemetry.F("rank", tr.Rank()), telemetry.F("err", err.Error()))
			}
		}(g.Transport(r))
	}
	return lp
}

// localPeers is rank 0 of StartLocalPeers' group, owning the peer
// goroutines.
type localPeers struct {
	*netcluster.SimTransport
	wg sync.WaitGroup
}

// Close closes the group and waits for the peers to stop.
func (lp *localPeers) Close() error {
	err := lp.SimTransport.Close()
	lp.wg.Wait()
	return err
}

// ServePeer runs a peer machine's serve loop over a bootstrapped
// transport (rank >= 1): it installs FrameShard pushes into a local
// registry, answers FrameAssignReq RPCs from its shard batchers at the
// request's element width, retires copies on FrameShardDrop, drains
// its batchers on FrameFlush, and heartbeats the coordinator with
// FramePulse. Shard installs and drops apply in arrival order on the
// receive goroutine (so a drop never races its own shard's restore);
// assign RPCs run concurrently, each on its own goroutine, because a
// GEMM must not stall the heartbeat or a rebalance push.
//
// ServePeer blocks until the transport closes (coordinator shutdown or
// this process being told to stop via tr.Close) and returns nil on a
// clean close.
func ServePeer(tr netcluster.Transport, opts PeerOptions) error {
	return servePeer(tr, opts, false)
}

// servePeer is ServePeer; shared marks a peer that runs inside the
// coordinator's process (StartLocalPeers), which registers no gauge and
// answers a metrics pull with no families, since the process registry
// is not its own.
func servePeer(tr netcluster.Transport, opts PeerOptions, shared bool) error {
	if tr.Rank() == 0 {
		return fmt.Errorf("shardserve: rank 0 is the coordinator, not a peer")
	}
	bopts := opts.Batcher
	bopts.RawSqDist = true
	bopts.ModelQuota = 0
	bopts.Internal = true
	bopts.Tracer = nil
	reg := serve.NewRegistry(1)
	bat64 := serve.NewBatcherOf[float64](reg, bopts)
	bat32 := serve.NewBatcherOf[float32](reg, bopts)
	metrics := telemetry.Default
	if shared {
		metrics = nil
	} else {
		// Live-shard count for the federated scrape: the coordinator's
		// /metrics/cluster shows how many shard copies each worker holds.
		metrics.GaugeFunc("knor_peer_shards",
			"Shard copies installed in this worker process's local registry.",
			func() float64 { return float64(len(reg.List())) })
	}

	pulseEvery := opts.PulseEvery
	if pulseEvery <= 0 {
		pulseEvery = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// On return: stop the pulser, close the batchers (answering what is
	// queued and refusing the rest, so no RPC goroutine waits out
	// MaxWait), then wait for every goroutine started here.
	defer func() {
		close(stop)
		bat32.Close()
		bat64.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pulseEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := tr.Send(0, &netcluster.Frame{Type: netcluster.FramePulse}); err != nil {
					return // coordinator gone; the recv loop is exiting too
				}
			case <-stop:
				return
			}
		}
	}()

	for {
		f, err := tr.Recv(0)
		if err != nil {
			return nil // transport closed: clean shutdown
		}
		switch f.Type {
		case netcluster.FrameShard:
			if err := peerInstall(reg, f); err != nil {
				return fmt.Errorf("shardserve: peer rank %d: bad shard push: %w", tr.Rank(), err)
			}
		case netcluster.FrameShardDrop:
			key, _, err := netcluster.StringAt(f.Payload, 0)
			if err != nil {
				return fmt.Errorf("shardserve: peer rank %d: bad shard drop: %w", tr.Rank(), err)
			}
			reg.Drop(key)
		case netcluster.FrameAssignReq:
			wg.Add(1)
			go func(f *netcluster.Frame) {
				defer wg.Done()
				// The receipt instant anchors every worker-local span: the
				// spans ship back as offsets from it on THIS process's
				// monotonic clock, and the coordinator re-anchors them at
				// its own dispatch time — no absolute wall time crosses the
				// process boundary.
				rec := newSpanRec(f.Trace, time.Now())
				as, aerr := peerAnswer(bat32, bat64, f, rec)
				encStart := time.Now()
				payload := encodeAssignResp(as, aerr)
				rec.add("encode", encStart)
				resp := &netcluster.Frame{
					Type: netcluster.FrameAssignResp, Seq: f.Seq,
					Payload: payload,
					Trace:   rec.ext(f.Trace),
				}
				// A send failure means the coordinator is gone; the recv
				// loop notices on its next Recv.
				_ = tr.Send(0, resp)
			}(f)
		case netcluster.FrameFlush:
			wg.Add(1)
			go func() {
				defer wg.Done()
				bat32.Flush()
				bat64.Flush()
			}()
		case netcluster.FrameMetrics:
			// Metrics federation pull: answer with this process's registry
			// snapshot. Runs off the recv goroutine so a large snapshot
			// never stalls shard installs or the heartbeat.
			wg.Add(1)
			go func(f *netcluster.Frame) {
				defer wg.Done()
				var fams []telemetry.SnapshotFamily
				if metrics != nil {
					fams = metrics.Snapshot()
				}
				_ = tr.Send(0, &netcluster.Frame{
					Type: netcluster.FrameMetrics, Seq: f.Seq,
					Payload: netcluster.EncodeSnapshot(nil, fams),
				})
			}(f)
		}
	}
}

// spanRec collects worker-local spans for a sampled request as offsets
// from the request-receipt anchor. nil (unsampled request) records
// nothing, so the common path pays only the nil check.
type spanRec struct {
	anchor time.Time
	spans  []telemetry.RemoteSpan
}

// newSpanRec returns a recorder when the incoming frame carries a
// sampled trace context, nil otherwise.
func newSpanRec(ext *netcluster.TraceExt, receipt time.Time) *spanRec {
	if ext == nil || !ext.Sampled {
		return nil
	}
	return &spanRec{anchor: receipt}
}

// add records a span from start to now.
func (r *spanRec) add(name string, start time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, telemetry.RemoteSpan{
		Name:  name,
		Start: start.Sub(r.anchor),
		Dur:   time.Since(start),
	})
}

// ext builds the reply's trace extension: the request's context echoed
// back with the recorded spans piggybacked. nil for unsampled requests.
func (r *spanRec) ext(req *netcluster.TraceExt) *netcluster.TraceExt {
	if r == nil || req == nil {
		return nil
	}
	return &netcluster.TraceExt{
		TraceID: req.TraceID, Parent: req.Parent, Sampled: true, Spans: r.spans,
	}
}

// checkFloats verifies, before anything is allocated for it, that a
// payload holds exactly rows×d values of elem (4 or 8) bytes. The counts come
// from the frame header fields and are untrusted: the product is
// bounded by MaxFrameBytes without overflowing, and must equal the
// payload length.
func checkFloats(rows, d int, elem byte, payload []byte) error {
	if rows <= 0 || d <= 0 {
		return fmt.Errorf("claims %dx%d values", rows, d)
	}
	if elem != 4 && elem != 8 {
		return fmt.Errorf("element width %d", elem)
	}
	limit := netcluster.MaxFrameBytes / int(elem)
	if rows > limit || d > limit/rows {
		return fmt.Errorf("claims %dx%d values, over the frame bound", rows, d)
	}
	if want := rows * d * int(elem); len(payload) != want {
		return fmt.Errorf("claims %dx%d values in %d payload bytes, want %d", rows, d, len(payload), want)
	}
	return nil
}

// peerInstall restores one pushed shard snapshot into the peer's local
// registry at the pushed element width — the payload bits go straight
// into the registry, so a remote replica holds exactly the bytes the
// coordinator's local registries hold.
func peerInstall(reg *serve.Registry, f *netcluster.Frame) error {
	key, version, node, krows, d, rest, err := decodeShard(f.Payload)
	if err != nil {
		return err
	}
	if err := checkFloats(krows, d, f.Elem, rest); err != nil {
		return fmt.Errorf("shard %q: %w", key, err)
	}
	if f.Elem == 4 {
		c := matrix.New[float32](krows, d)
		if _, err := netcluster.FloatsAt(rest, 0, krows*d, c.Data); err != nil {
			return err
		}
		_, err = serve.RestoreOf(reg, key, version, node, c)
	} else {
		c := matrix.New[float64](krows, d)
		if _, err := netcluster.FloatsAt(rest, 0, krows*d, c.Data); err != nil {
			return err
		}
		_, err = reg.Restore(key, version, node, c)
	}
	// A version that is not newer than what we hold is a rebalance
	// replaying a push we already have — not an error.
	if err != nil && version > 0 {
		if cur, ok := reg.Get(key); ok && cur.Version >= version {
			return nil
		}
	}
	return err
}

// peerAnswer runs one assign RPC against the local shard batchers at
// the request's element width, recording decode and GEMM spans on rec
// when the request is sampled.
func peerAnswer(bat32 *serve.BatcherOf[float32], bat64 *serve.BatcherOf[float64], f *netcluster.Frame, rec *spanRec) ([]serve.Assignment, error) {
	decStart := time.Now()
	key, nrows, d, rows, err := decodeAssignReq(f.Payload)
	if err != nil {
		return nil, err
	}
	if err := checkFloats(nrows, d, f.Elem, rows); err != nil {
		return nil, fmt.Errorf("assign request: %w", err)
	}
	if f.Elem == 4 {
		q := matrix.New[float32](nrows, d)
		if _, err := netcluster.FloatsAt(rows, 0, nrows*d, q.Data); err != nil {
			return nil, err
		}
		rec.add("decode", decStart)
		gemmStart := time.Now()
		as, err := bat32.AssignBatch(key, q)
		rec.add("shard_gemm", gemmStart)
		return as, err
	}
	q := matrix.New[float64](nrows, d)
	if _, err := netcluster.FloatsAt(rows, 0, nrows*d, q.Data); err != nil {
		return nil, err
	}
	rec.add("decode", decStart)
	gemmStart := time.Now()
	as, err := bat64.AssignBatch(key, q)
	rec.add("shard_gemm", gemmStart)
	return as, err
}
