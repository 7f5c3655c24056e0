package shardserve

import (
	"sync"

	"knor/internal/telemetry"
)

// FederateMetrics assembles the cluster-wide metrics view behind
// GET /metrics/cluster: rank 0's snapshot comes from the local
// registry, every worker rank's is pulled concurrently over a
// FrameMetrics RPC. The scrape never blocks on a dead or hung worker —
// machines whose kill switch is down are skipped outright, and an RPC
// error or timeout (FetchMetrics caps its own deadline) degrades that
// rank to a stale marker instead of failing the scrape.
//
// Peers started by StartLocalPeers share this process and its
// registry: their work is already in rank 0's snapshot, so their
// entries carry no families (stale when their kill switch is down)
// instead of repeating rank 0's series under every rank.
//
// hub may be nil (single-process mode): the result is rank 0 alone.
func FederateMetrics(hub *Hub, sr *ShardRegistry, local *telemetry.Registry) []telemetry.RankSnapshot {
	if local == nil {
		local = telemetry.Default
	}
	snaps := []telemetry.RankSnapshot{{Rank: 0, Families: local.Snapshot()}}
	if hub == nil {
		return snaps
	}
	size := hub.tr.Size()
	_, shared := hub.tr.(*localPeers)
	rest := make([]telemetry.RankSnapshot, size-1)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		rest[r-1].Rank = r
		if sr != nil && sr.MachineDown(r) {
			rest[r-1].Stale = true
			continue
		}
		if shared {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fams, err := hub.FetchMetrics(r)
			if err != nil {
				rest[r-1].Stale = true
				return
			}
			rest[r-1].Families = fams
		}(r)
	}
	wg.Wait()
	return append(snaps, rest...)
}
