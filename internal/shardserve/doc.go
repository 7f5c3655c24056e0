// Package shardserve is the distributed serving layer: one model's k
// centroids sharded across M machines, /assign batches fanned out to
// every shard and merged by a min-allreduce — the paper's scale-out
// story (knord's row-sharded cluster) applied to the online path (the
// serve layer's batched GEMM assigner), so query throughput is no
// longer bound by one machine's GEMM rate or one machine's memory for
// k×d centroids.
//
// There is one machine path. Machine 0 is this process; machines
// 1..M-1 are ServePeers reached only through netcluster frames, behind
// the registry's Hub. The peers run as goroutines on an in-process
// netcluster.SimGroup (StartLocalPeers, the default) or as worker
// processes over TCP (Options.Transport from netcluster.DialCluster);
// the code above the transport is the same either way.
//
// Three pieces compose it:
//
//   - ShardRegistry — keeps the machines' shard registries in lockstep:
//     publishing a model splits its centroid rows into contiguous
//     shards (dist.Partition, the same row-sharding knord uses) and
//     restores shard i into its machines at the SAME version number,
//     copy-on-write like the single-node registry — locally for
//     machine 0, as a FrameShard push for the peers. Attach mirrors an
//     existing registry, so a knorserve with -machines M shards every
//     publish automatically; a publish with a different k rebalances
//     the split.
//   - Hub and ServePeer — the coordinator and peer ends of the
//     transport: shard pushes and drops, assign RPCs matched by
//     sequence number, FrameFlush drains, heartbeats into the
//     membership layer, and metrics federation.
//   - AssignerOf — the fan-out router. Machine 0's serve.BatcherOf
//     answers its shard groups; every other group is an assign RPC to
//     its peer. A query batch goes to all shards concurrently, each
//     answers local (argmin, dist) pairs against only its centroid
//     rows, and answers are folded into the global result as they
//     arrive (CombineMin), so reduction overlaps the slower
//     shards' GEMMs. The result is bit-identical to the single-node
//     serve.Assigner for any machine count and either precision:
//     shards return raw distances (the cancellation clamp is applied
//     once, after the global min), ties break on the lowest global
//     centroid index exactly as the single-node ascending argmin scan
//     does, the wire carries exact float bits, and the blas kernels
//     guarantee a centroid block sliced out of a larger matrix
//     produces bit-identical distances at both widths.
package shardserve
