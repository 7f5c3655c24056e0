// Package dist implements knord, the paper's distributed k-means
// module (Section 8.9, Figures 11-13): decentralised per-machine
// drivers — each a full NUMA-aware ||Lloyd's engine over a contiguous
// row shard — merged once per iteration by one collective.
//
// There is one training path, RunTransport: one rank's share of the
// run over a netcluster.Transport. Multi-process knord runs it over
// TCP; Run and RunPrecision run it on M goroutines over an in-process
// netcluster.SimGroup and return rank 0's result. The simulated
// cluster therefore moves exactly the frames a real one moves, and its
// network time is the SimGroup's per-frame alpha-beta charge on one
// clock per rank, composed with each engine's worker clocks around the
// collective (see DESIGN.md's substitution table). Data partitioning,
// assignments, membership deltas and convergence are computed for real.
//
// Three execution modes reproduce the paper's comparison:
//
//   - ModeKnord — the paper's design: NUMA-aware engines joined by a
//     ring allgather of the per-machine centroid accumulators (k·d
//     sums + k counts per machine, the payload documented on
//     kmeans.Accum.SerializedBytes), folded on every machine.
//   - ModeMPI — the same collective driving NUMA-oblivious engines: the
//     routine MPI port that lacks the paper's intra-machine
//     optimisations.
//   - ModeMLlib — a master-worker emulation of Spark MLlib's k-means:
//     per-task driver dispatch (Config.MLlibTaskOverhead), boxed-row
//     access costs, JVM serialisation, and a gather to the driver that
//     folds and broadcasts the merged model — the bottleneck that
//     separates Figures 11-12's curves.
//
// Every mode is algorithmically exact: because initial centroids are
// drawn from the *full* dataset before sharding and every machine
// applies the identical global delta, folded in fixed rank order,
// knord's assignments and centroids reproduce the serial Lloyd's oracle
// for any machine count (the modes differ only in simulated cost).
package dist
