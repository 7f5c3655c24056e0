package shardserve

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// assignReqFrames reads knor_net_frames_total{type="assign_req"}.
func assignReqFrames() float64 {
	for _, fam := range telemetry.Default.Snapshot() {
		if fam.Name != "knor_net_frames_total" {
			continue
		}
		for _, sm := range fam.Samples {
			if len(sm.Labels) == 1 && sm.Labels[0] == "assign_req" {
				return sm.Value
			}
		}
	}
	return 0
}

// TestParityAndChaosCrossTheWire: machines 1..M-1 are peers behind the
// hub, so the parity suite's registry and the chaos harness both send
// their remote shard groups as FrameAssignReq frames.
func TestParityAndChaosCrossTheWire(t *testing.T) {
	before := assignReqFrames()
	runParity[float64](t, 3, 17, 16, 32, 1)
	if after := assignReqFrames(); after <= before {
		t.Fatalf("NewShardRegistry(3) parity run sent %v assign_req frames, want > 0", after-before)
	}
	before = assignReqFrames()
	if _, err := RunChaos(ChaosConfig{Seed: *chaosSeed}); err != nil {
		t.Fatal(err)
	}
	if after := assignReqFrames(); after <= before {
		t.Fatalf("RunChaos sent %v assign_req frames, want > 0", after-before)
	}
}

// peerBatchers starts the float32/float64 shard batchers a peer runs,
// over reg.
func peerBatchers(t testing.TB, reg *serve.Registry) (*serve.BatcherOf[float32], *serve.BatcherOf[float64]) {
	opts := serve.BatcherOptions{MaxWait: time.Microsecond, RawSqDist: true, Internal: true}
	bat32 := serve.NewBatcherOf[float32](reg, opts)
	bat64 := serve.NewBatcherOf[float64](reg, opts)
	t.Cleanup(func() {
		bat32.Close()
		bat64.Close()
	})
	return bat32, bat64
}

// TestPeerDecodersRejectOversizedCounts: the row and column counts in
// assign requests, shard pushes and assign responses are checked
// against the payload length before anything is allocated. A 30-byte
// request claiming 2^20×2^20 float32 values used to ask for a 4 TiB
// allocation before any length check.
func TestPeerDecodersRejectOversizedCounts(t *testing.T) {
	reg := serve.NewRegistry(1)
	bat32, bat64 := peerBatchers(t, reg)
	rows := make([]byte, 17)
	for _, c := range []struct {
		name    string
		n, d    int
		payload []byte
	}{
		{"2^20x2^20", 1 << 20, 1 << 20, rows},
		{"product overflows", math.MaxUint32, math.MaxUint32, rows},
		{"one byte short", 2, 2, make([]byte, 15)},
		{"one byte long", 2, 2, make([]byte, 17)},
	} {
		req := &netcluster.Frame{Type: netcluster.FrameAssignReq, Elem: 4,
			Payload: encodeAssignReq("m", c.n, c.d, c.payload)}
		if c.name == "2^20x2^20" && len(req.Payload) != 30 {
			t.Fatalf("request payload is %d bytes, want 30", len(req.Payload))
		}
		if _, err := peerAnswer(bat32, bat64, req, nil); err == nil {
			t.Errorf("%s: peerAnswer accepted the request", c.name)
		}
		shard := &netcluster.Frame{Type: netcluster.FrameShard, Elem: 4,
			Payload: encodeShard("m", 1, 0, c.n, c.d, c.payload)}
		if err := peerInstall(reg, shard); err == nil {
			t.Errorf("%s: peerInstall accepted the shard", c.name)
		}
	}
	if len(reg.List()) != 0 {
		t.Fatalf("rejected shards were installed: %d models", len(reg.List()))
	}
	// The coordinator's side: a response claiming 2^32-1 rows in an
	// 8-byte payload.
	resp := netcluster.AppendUint32(netcluster.AppendUint32(nil, 1), math.MaxUint32)
	if _, err := decodeAssignResp(resp); err == nil {
		t.Error("decodeAssignResp accepted 2^32-1 rows in 8 bytes")
	}
}

// FuzzPeerPayloads: arbitrary bytes never panic the peer payload
// decoders or the peer's shard-install and assign paths, and every
// value a decoder accepts re-encodes and decodes to the same bits.
func FuzzPeerPayloads(f *testing.F) {
	f.Add(encodeShard("m", 3, 0, 2, 2, netcluster.AppendFloats(nil, []float32{1, 2, 3, 4})), byte(4))
	f.Add(encodeAssignReq("m", 1, 2, netcluster.AppendFloats(nil, []float64{1, 2})), byte(8))
	f.Add(encodeAssignReq("m", 2, 2, netcluster.AppendFloats(nil, []float32{1, 2, -3, 0.5})), byte(4))
	f.Add(encodeAssignResp([]serve.Assignment{{Cluster: 1, SqDist: 0.5, Version: 2}}, nil), byte(0))
	f.Add(encodeAssignResp(nil, errors.New("boom")), byte(0))
	f.Add(encodeAssignReq("m", 1<<20, 1<<20, make([]byte, 17)), byte(4))

	// A published model the fuzzer can reach: key "m", d = 2.
	reg := serve.NewRegistry(1)
	if _, err := reg.Publish("m", seqCentroids(3, 2, 0)); err != nil {
		f.Fatal(err)
	}
	bat32, bat64 := peerBatchers(f, reg)

	f.Fuzz(func(t *testing.T, b []byte, elem byte) {
		if key, version, node, krows, d, rest, err := decodeShard(b); err == nil {
			k2, v2, n2, kr2, d2, r2, err := decodeShard(encodeShard(key, version, node, krows, d, rest))
			if err != nil || k2 != key || v2 != version || n2 != node || kr2 != krows || d2 != d || !bytes.Equal(r2, rest) {
				t.Fatalf("shard payload round trip: %v", err)
			}
		}
		if key, nrows, d, rows, err := decodeAssignReq(b); err == nil {
			k2, n2, d2, r2, err := decodeAssignReq(encodeAssignReq(key, nrows, d, rows))
			if err != nil || k2 != key || n2 != nrows || d2 != d || !bytes.Equal(r2, rows) {
				t.Fatalf("assign request round trip: %v", err)
			}
		}
		if as, err := decodeAssignResp(b); err == nil {
			as2, err := decodeAssignResp(encodeAssignResp(as, nil))
			if err != nil || len(as2) != len(as) {
				t.Fatalf("assign response round trip: %v", err)
			}
			for i := range as {
				if as2[i].Cluster != as[i].Cluster || as2[i].Version != as[i].Version ||
					math.Float64bits(as2[i].SqDist) != math.Float64bits(as[i].SqDist) {
					t.Fatalf("assign response row %d: %+v != %+v", i, as2[i], as[i])
				}
			}
		}
		req := &netcluster.Frame{Type: netcluster.FrameAssignReq, Elem: elem, Payload: b}
		if as, err := peerAnswer(bat32, bat64, req, nil); err == nil {
			if _, nrows, _, _, _ := decodeAssignReq(b); len(as) != nrows {
				t.Fatalf("answered %d rows of %d", len(as), nrows)
			}
		}
		_ = peerInstall(serve.NewRegistry(1), &netcluster.Frame{Type: netcluster.FrameShard, Elem: elem, Payload: b})
	})
}
