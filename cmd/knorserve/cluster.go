package main

import (
	"fmt"
	"net/http"
	"strconv"

	"knor/internal/shardserve"
	"knor/internal/telemetry"
)

// Cluster-wide observability endpoints: /metrics/cluster federates
// every rank's telemetry registry into one Prometheus page,
// /v1/cluster/stats condenses the same snapshots into per-rank health
// numbers, and /debug/events serves the structured cluster journal.

// federate pulls one snapshot per rank. A single-node server has no
// hub, so the result is rank 0's local registry alone — the endpoints
// stay useful at every -machines setting. In-process peers (-machines
// N without -listen) share rank 0's registry, so their ranks carry no
// series of their own.
func (s *server) federate() []telemetry.RankSnapshot {
	var hub *shardserve.Hub
	if s.shards != nil {
		hub = s.shards.Hub()
	}
	return shardserve.FederateMetrics(hub, s.shards, telemetry.Default)
}

// handleClusterMetrics renders the federated Prometheus exposition:
// every series from every rank under a rank="N" label, families in
// deterministic order, dead workers present as
// knor_federation_stale{rank} 1 instead of blocking the scrape.
func (s *server) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	snaps := s.federate()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WriteFederatedPrometheus(w, snaps)
}

// rankStats is one rank's condensed health on /v1/cluster/stats.
type rankStats struct {
	Rank  int  `json:"rank"`
	Stale bool `json:"stale"`
	// Latency quantiles: the fan-out request path on rank 0, the shard
	// GEMM path on workers (their edge instruments are internal). Zero,
	// like BytesTotal and Inflight, for an in-process peer: its work is
	// counted in rank 0's registry.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// BytesTotal sums the rank's transport traffic, both directions.
	BytesTotal float64 `json:"bytes_total"`
	// Inflight is the rank's current in-flight assign requests.
	Inflight float64 `json:"inflight"`
	// Shards is the live shard-copy count the rank holds.
	Shards float64 `json:"shards"`
}

// handleClusterStats answers the per-rank digest: latency quantiles,
// transport bytes, in-flight requests, and live shard copies for every
// rank, with dead workers marked stale rather than omitted.
func (s *server) handleClusterStats(w http.ResponseWriter, _ *http.Request) {
	snaps := s.federate()
	ranks := make([]rankStats, 0, len(snaps))
	for _, snap := range snaps {
		rs := rankStats{Rank: snap.Rank, Stale: snap.Stale}
		if !snap.Stale {
			lat := "knor_serve_gemm_seconds"
			if snap.Rank == 0 {
				// The coordinator's edge latency: fan-out requests in
				// cluster/sharded mode, the plain batcher path otherwise.
				lat = "knor_shardserve_request_seconds"
				if famCount(snap.Families, lat) == 0 {
					lat = "knor_serve_request_seconds"
				}
			}
			rs.P50MS = famQuantile(snap.Families, lat, 0.50) * 1e3
			rs.P95MS = famQuantile(snap.Families, lat, 0.95) * 1e3
			rs.P99MS = famQuantile(snap.Families, lat, 0.99) * 1e3
			rs.BytesTotal = famSum(snap.Families, "knor_net_bytes_total")
			rs.Inflight = famSum(snap.Families, "knor_serve_inflight_requests")
			// The plan, not the rank's own gauge: in-process peers
			// publish no knor_peer_shards.
			if s.shards != nil {
				rs.Shards = float64(s.shards.CopiesOn(snap.Rank))
			}
		}
		ranks = append(ranks, rs)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ranks": ranks})
}

// famQuantile merges a histogram family's samples and returns the
// quantile, 0 when the family is absent or empty.
func famQuantile(fams []telemetry.SnapshotFamily, name string, q float64) float64 {
	var merged telemetry.SnapshotSample
	for _, fam := range fams {
		if fam.Name != name || fam.Kind != "histogram" {
			continue
		}
		for _, sm := range fam.Samples {
			if merged.Bounds == nil {
				merged.Bounds = sm.Bounds
				merged.Buckets = append([]uint64(nil), sm.Buckets...)
				merged.Sum, merged.Count = sm.Sum, sm.Count
				continue
			}
			for i := range sm.Buckets {
				if i < len(merged.Buckets) {
					merged.Buckets[i] += sm.Buckets[i]
				}
			}
			merged.Sum += sm.Sum
			merged.Count += sm.Count
		}
	}
	if merged.Count == 0 {
		return 0
	}
	return merged.Quantile(q)
}

// famCount returns a histogram family's total observation count.
func famCount(fams []telemetry.SnapshotFamily, name string) uint64 {
	var n uint64
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, sm := range fam.Samples {
			n += sm.Count
		}
	}
	return n
}

// famSum sums a counter/gauge family's sample values across label sets.
func famSum(fams []telemetry.SnapshotFamily, name string) float64 {
	var v float64
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, sm := range fam.Samples {
			v += sm.Value
		}
	}
	return v
}

// handleEvents serves the structured cluster journal with a since-seq
// cursor: GET /debug/events?since=N&max=M returns events with Seq > N
// (ascending), at most M of them (default 256). Pollers resume from
// the last_seq they saw; a gap in Seq means the ring overwrote events
// between polls.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		since = n
	}
	max := 256
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		max = n
	}
	events := telemetry.DefaultJournal.Since(since, max)
	writeJSON(w, http.StatusOK, map[string]any{
		"last_seq": telemetry.DefaultJournal.LastSeq(),
		"events":   events,
	})
}
