package dist

import (
	"fmt"

	"knor/internal/blas"
	"knor/internal/frameworks"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/numa"
	"knor/internal/sched"
	"knor/internal/simclock"
)

// The one distributed training path: a rank's share of the iteration
// over a netcluster.Transport, in every mode. Multi-process knord runs
// it over TCP; Run runs it on M goroutines over a netcluster.SimGroup.
//
// Parity discipline: every rank computes the SAME global accumulator
// by folding all M per-rank deltas in fixed rank order 0..M-1 — on
// every rank after an allgather (knord, MPI), or on the driver, rank 0,
// which broadcasts the fold (MLlib) — and applies it to identical
// centroids. Each rank also holds the cluster's aggregated iteration
// stats, so the convergence decision is the same expression over the
// same values everywhere: the ranks never need a verdict broadcast and
// can never disagree about when to stop.

// RunTransport runs this rank's part of a distributed k-means over tr
// at the requested precision. Every rank must be given the identical
// data and cfg (the TCP bootstrap's config digest enforces this); the
// returned Result carries the converged centroids and per-iteration
// stats on every rank, and additionally the global assignments, sizes
// and SSE on rank 0 (assignments are gathered to the coordinator, which
// is the process that reports). Over a SimTransport the simulated
// network time joins SimSeconds; a TCP rank has no simulated network
// clock and reports compute time only.
func RunTransport(tr netcluster.Transport, data *matrix.Dense, cfg Config, p kmeans.Precision) (*kmeans.Result, error) {
	if p == kmeans.Precision32 {
		return runTransport[float32](tr, data, cfg)
	}
	return runTransport[float64](tr, data, cfg)
}

func runTransport[T blas.Float](tr netcluster.Transport, data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	j, err := newJob[T](data, cfg)
	if err != nil {
		return nil, err
	}
	return j.run(tr)
}

// job is one distributed run's inputs, identical on every rank: the
// configs, the data at element type T, the shards and the seed
// centroids. Run builds it once and its ranks share it read-only.
type job[T blas.Float] struct {
	cfg      Config
	kcfg     kmeans.Config  // validated, with defaults
	shardCfg kmeans.Config  // every rank's engine config
	raw      *matrix.Mat[T] // un-normalised rows; each engine views its shard
	full     *matrix.Mat[T] // normalised on spherical runs: the SSE's input
	shards   []Shard
	payload  int // accumulator wire bytes per rank
	tasks    int // cluster-wide task count, for MLlib dispatch
}

func newJob[T blas.Float](data *matrix.Dense, cfg Config) (*job[T], error) {
	if data == nil || data.Rows() == 0 {
		return nil, fmt.Errorf("dist: empty dataset")
	}
	if err := cfg.validate(data.Rows()); err != nil {
		return nil, err
	}
	kcfg, err := cfg.Kmeans.WithDefaults(data.Rows())
	if err != nil {
		return nil, err
	}

	// Precision conversion happens ONCE on the full float64 matrix —
	// exactly where kmeans.RunPrecision does it — so every downstream
	// value (normalisation, init, iteration) is computed in T arithmetic
	// and matches the single-process T oracle bit for bit.
	raw, ok := any(data).(*matrix.Mat[T])
	if !ok {
		raw = matrix.Convert[T](data)
	}
	// Spherical runs normalise a global copy exactly as the serial
	// oracle does: the init and the SSE are computed on it, while each
	// engine normalises its own raw shard (the identical row-wise
	// operation, so shard rows match the oracle's bit for bit).
	full := raw
	if kcfg.Spherical {
		full = raw.Clone()
		matrix.NormalizeRows(full)
	}
	// Initial centroids come from the FULL dataset — the one global
	// step of the paper's design (the root scatters the seed centroids
	// before iteration 0). Sharding the init instead would make the
	// result depend on the machine count.
	init := matrix.ToFloat64(kmeans.InitCentroidsOf(full, kcfg)) // exact T→float64→T round-trip

	j := &job[T]{
		cfg: cfg, kcfg: kcfg, shardCfg: engineConfig(cfg.Mode, kcfg, init),
		raw: raw, full: full, shards: Partition(data.Rows(), cfg.Machines),
		payload: kmeans.NewAccumOf[T](kcfg.K, data.Cols()).SerializedBytes(),
	}
	for _, sh := range j.shards {
		j.tasks += sh.Tasks(kcfg.TaskSize)
	}
	return j, nil
}

// engineConfig is every machine's engine configuration in mode. All
// machines start from the identical given centroids; the engines must
// not re-run the (data-dependent) init method. On spherical runs the
// engine normalises the given centroids itself, matching the oracle's
// post-init normalise, so init is passed un-normalised.
func engineConfig(mode Mode, kcfg kmeans.Config, init *matrix.Dense) kmeans.Config {
	c := kcfg
	c.Init = kmeans.InitGiven
	c.Centroids = init
	switch mode {
	case ModeKnord:
		// The paper's engine, as configured by the caller.
	case ModeMPI:
		// A routine MPI port runs unpinned processes over first-touch
		// allocation: the NUMA-oblivious baseline inside each machine.
		c.NUMAOblivious = true
		c.Placement = numa.PlaceSingleBank
		c.Sched = sched.FIFO
	case ModeMLlib:
		// Spark executors: JVM rows, no pinning, FIFO task queues. The
		// boxed-row cost reuses the Figure 9 calibration so single-node
		// and distributed MLlib emulations agree.
		c.NUMAOblivious = true
		c.Placement = numa.PlaceSingleBank
		c.Sched = sched.FIFO
		c.Model.RowOverhead += frameworks.ProfileOf(frameworks.MLlib).RowOverhead
	}
	return c
}

// rank is one machine's side of a run: its engine over its shard, its
// transport endpoint, and — over a SimTransport — the simulated network
// clock its engine's worker clocks compose with.
type rank[T blas.Float] struct {
	*job[T]
	tr    netcluster.Transport
	eng   *kmeans.EngineOf[T]
	clock *simclock.Clock // nil on a TCP rank
}

func (j *job[T]) run(tr netcluster.Transport) (*kmeans.Result, error) {
	if j.cfg.Machines != tr.Size() {
		return nil, fmt.Errorf("dist: cfg.Machines=%d but transport has %d ranks", j.cfg.Machines, tr.Size())
	}
	sh := j.shards[tr.Rank()]
	eng, err := kmeans.NewEngine(ViewOf(sh, j.raw), j.shardCfg)
	if err != nil {
		return nil, fmt.Errorf("dist: machine %d (rows %d..%d): %w", tr.Rank(), sh.Lo, sh.Hi, err)
	}
	r := &rank[T]{job: j, tr: tr, eng: eng}
	if st, ok := tr.(*netcluster.SimTransport); ok {
		r.clock = st.Clock()
	}

	res := &kmeans.Result{}
	prevEnd := 0.0
	for iter := 0; iter < j.kcfg.MaxIters; iter++ {
		// MLlib's driver serially ships every partition task before the
		// executors can start computing (Figure 12's per-task cost).
		if j.cfg.Mode == ModeMLlib && j.cfg.MLlibTaskOverhead > 0 {
			r.enterNet()
			r.mllibCharge(mllibDispatch)
			r.leaveNet()
		}
		st, delta := eng.LocalPhase(iter)
		global, agg, err := r.merge(uint32(iter), delta, st)
		if err != nil {
			return nil, fmt.Errorf("dist: iteration %d: %w", iter, err)
		}
		// Identical apply everywhere: the same delta into the same sums
		// gives every machine bit-identical next centroids.
		agg.Drift = eng.ApplyGlobal(global)
		agg.Iter = iter
		iterEnd := eng.Group().Max()
		agg.SimSeconds = iterEnd - prevEnd
		prevEnd = iterEnd
		res.PerIter = append(res.PerIter, agg)
		res.Iters = iter + 1
		// Identical inputs everywhere → identical verdict everywhere.
		if iter > 0 && (agg.RowsChanged == 0 || agg.Drift <= j.kcfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = matrix.ToFloat64(eng.Centroids())
	res.SimSeconds = prevEnd
	res.MemoryBytes = j.memoryBytes()
	if err := r.gatherAssign(res); err != nil {
		return nil, err
	}
	return res, nil
}

// enterNet advances the network clock to the engine's latest worker
// time, so a collective starts when the computation finished; leaveNet
// restarts every worker at the network clock afterwards. Both are
// no-ops on a TCP rank.
func (r *rank[T]) enterNet() {
	if r.clock != nil {
		r.clock.AdvanceTo(r.eng.Group().Max())
	}
}

func (r *rank[T]) leaveNet() {
	if r.clock != nil {
		r.eng.Group().ResetAll(r.clock.Now())
	}
}

// merge is the iteration's one collective. It returns the global delta
// — every rank's block folded in rank order 0..M-1 — and the cluster's
// aggregated stats. knord and MPI allgather the blocks and fold on
// every rank; MLlib gathers them to the driver, which folds and
// broadcasts the result.
func (r *rank[T]) merge(seq uint32, delta *kmeans.AccumOf[T], st kmeans.IterStats) (*kmeans.AccumOf[T], kmeans.IterStats, error) {
	r.enterNet()
	defer r.leaveNet()
	elem := byte(blas.ElemBytes[T]())
	mine := encodeAccum(delta, st)
	if r.cfg.Mode != ModeMLlib {
		if r.clock != nil && r.tr.Size() > 1 {
			r.clock.Advance(r.kcfg.Model.NetSetup)
		}
		blocks, err := netcluster.Allgather(r.tr, netcluster.FrameAccum, elem, seq, mine)
		if err != nil {
			return nil, kmeans.IterStats{}, err
		}
		return r.fold(blocks)
	}

	r.mllibCharge(mllibSend)
	blocks, err := netcluster.Gather(r.tr, 0, netcluster.FrameAccum, elem, seq, mine)
	if err != nil {
		return nil, kmeans.IterStats{}, err
	}
	var model []byte
	if r.tr.Rank() == 0 {
		global, agg, err := r.fold(blocks)
		if err != nil {
			return nil, kmeans.IterStats{}, err
		}
		r.mllibCharge(mllibMerge)
		model = encodeAccum(global, agg)
	}
	if model, err = netcluster.Bcast(r.tr, 0, netcluster.FrameAccum, elem, seq, model); err != nil {
		return nil, kmeans.IterStats{}, err
	}
	r.mllibCharge(mllibRecv)
	return decodeAccum[T](model, r.kcfg.K, r.raw.Cols())
}

// fold decodes every rank's block — this rank's own included, so all
// M inputs take the identical encode→decode path — and merges them in
// rank order 0..M-1: the parity-critical loop.
func (r *rank[T]) fold(blocks [][]byte) (*kmeans.AccumOf[T], kmeans.IterStats, error) {
	k, d := r.kcfg.K, r.raw.Cols()
	global := kmeans.NewAccumOf[T](k, d)
	stats := make([]kmeans.IterStats, len(blocks))
	for m, b := range blocks {
		dm, sm, err := decodeAccum[T](b, k, d)
		if err != nil {
			return nil, kmeans.IterStats{}, fmt.Errorf("block from rank %d: %w", m, err)
		}
		global.Merge(dm)
		stats[m] = sm
	}
	return global, aggregateStats(stats), nil
}

// mllibStage names the points of an MLlib iteration that pay JVM-side
// time on top of the frames the network charges.
type mllibStage int

const (
	mllibDispatch mllibStage = iota // the driver ships the partition tasks
	mllibSend                       // an executor serialises its partial sums
	mllibMerge                      // the driver folds the payloads, rebuilds the model
	mllibRecv                       // every machine deserialises the model
)

// mllibCharge advances this rank's simulated clock by MLlib's JVM-side
// cost at one stage of an iteration: Figure 12's master-worker
// overheads. No-op on a TCP rank.
func (r *rank[T]) mllibCharge(stage mllibStage) {
	if r.clock == nil {
		return
	}
	model := r.kcfg.Model
	ser := float64(r.payload) * model.SerializeByteCost
	m, me := r.tr.Size(), r.tr.Rank()
	switch stage {
	case mllibDispatch:
		// The driver hands out tasks one at a time, round-robin over the
		// machines, MLlibTaskOverhead each. A machine starts once its
		// last task has arrived; the driver is busy until all have left.
		ov, dt := r.cfg.MLlibTaskOverhead, 0.0
		if me < r.tasks {
			last := me + m*((r.tasks-1-me)/m)
			dt = float64(last+1)*ov + model.NetLatency
		}
		if me == 0 {
			dt = max(dt, float64(r.tasks)*ov)
		}
		r.clock.Advance(dt)
	case mllibSend:
		// Serialisation plus the gather's collective setup.
		if me != 0 {
			r.clock.Advance(model.NetSetup + ser)
		}
	case mllibMerge:
		// Deserialise and fold each of the M-1 arriving payloads (one
		// add per sum/count slot), plus the broadcast's setup.
		flops := float64(r.payload) / 8 * model.FlopTime
		r.clock.Advance(float64(m-1)*(ser+flops) + model.NetSetup)
	case mllibRecv:
		r.clock.Advance(ser)
	}
}

// memoryBytes is the aggregate cluster footprint: every machine holds
// its shard, its engine state, and the two collective buffers (send +
// receive). MLlib inflates the data representation by the Figure 9
// memory factor.
func (j *job[T]) memoryBytes() uint64 {
	d, elem := j.raw.Cols(), blas.ElemBytes[T]()
	factor := 1.0
	if j.cfg.Mode == ModeMLlib {
		factor = frameworks.ProfileOf(frameworks.MLlib).MemFactor
	}
	var total uint64
	for _, sh := range j.shards {
		total += uint64(float64(sh.Rows()*d*elem) * factor)
		total += kmeans.StateBytes(sh.Rows(), d, j.kcfg.K, j.kcfg.Threads, j.kcfg.Prune)
		total += 2 * uint64(j.payload)
	}
	return total
}

// gatherAssign gathers the assignments to rank 0, which assembles the
// global vector in shard order and computes sizes and the SSE over the
// full (normalised) data.
func (r *rank[T]) gatherAssign(res *kmeans.Result) error {
	gathered, err := netcluster.Gather(r.tr, 0, netcluster.FrameGather, 0,
		uint32(r.kcfg.MaxIters), netcluster.AppendInt32s(nil, r.eng.Assign()))
	if err != nil {
		return fmt.Errorf("dist: assignment gather: %w", err)
	}
	if r.tr.Rank() != 0 {
		return nil
	}
	assign := make([]int32, r.raw.Rows())
	for m, sh := range r.shards {
		if got, want := len(gathered[m]), sh.Rows()*4; got != want {
			return fmt.Errorf("dist: rank %d gathered %d assignment bytes, want %d", m, got, want)
		}
		if _, err := netcluster.Int32sAt(gathered[m], 0, sh.Rows(), assign[sh.Lo:sh.Hi]); err != nil {
			return fmt.Errorf("dist: rank %d assignments: %w", m, err)
		}
	}
	res.Assign = assign
	res.Sizes = make([]int, r.kcfg.K)
	for _, a := range assign {
		if a >= 0 {
			res.Sizes[a]++
		}
	}
	res.SSE = kmeans.SSEOf(r.full, r.eng.Centroids(), assign)
	return nil
}

// encodeAccum serialises one rank's iteration contribution: the delta
// accumulator (counts then exact sum bits) and the stat counters the
// cluster aggregates.
func encodeAccum[T blas.Float](a *kmeans.AccumOf[T], st kmeans.IterStats) []byte {
	b := netcluster.AppendUint32(nil, uint32(a.K))
	b = netcluster.AppendUint32(b, uint32(a.D))
	b = netcluster.AppendInt64s(b, a.Count)
	b = netcluster.AppendFloats(b, a.Sum)
	b = netcluster.AppendUint64(b, st.DistCalcs)
	b = netcluster.AppendUint64(b, st.PrunedC1)
	b = netcluster.AppendUint64(b, st.PrunedC2)
	b = netcluster.AppendUint64(b, st.PrunedC3)
	b = netcluster.AppendUint64(b, uint64(st.RowsChanged))
	b = netcluster.AppendUint64(b, uint64(st.ActiveRows))
	b = netcluster.AppendUint64(b, st.BytesWanted)
	b = netcluster.AppendUint64(b, st.BytesRead)
	b = netcluster.AppendUint64(b, st.RowCacheHits)
	return b
}

// accumStats is the count of uint64 stat counters after the sums.
const accumStats = 9

// decodeAccum is encodeAccum's inverse. The block must be exactly the
// k×d accumulator this rank runs at element type T: a shape, width or
// length disagreement means the cluster is running mixed configs (or
// the bytes are corrupt) and is an error, never a partial read.
func decodeAccum[T blas.Float](b []byte, k, d int) (*kmeans.AccumOf[T], kmeans.IterStats, error) {
	var st kmeans.IterStats
	gk, err := netcluster.Uint32At(b, 0)
	if err != nil {
		return nil, st, err
	}
	gd, err := netcluster.Uint32At(b, 4)
	if err != nil {
		return nil, st, err
	}
	if int(gk) != k || int(gd) != d {
		return nil, st, fmt.Errorf("dist: accumulator shape %dx%d, this rank runs %dx%d", gk, gd, k, d)
	}
	if want := 8 + 8*k + k*d*blas.ElemBytes[T]() + 8*accumStats; len(b) != want {
		return nil, st, fmt.Errorf("dist: accumulator block is %d bytes, want %d", len(b), want)
	}
	a := kmeans.NewAccumOf[T](k, d)
	off, err := netcluster.Int64sAt(b, 8, k, a.Count)
	if err != nil {
		return nil, st, err
	}
	off, err = netcluster.FloatsAt(b, off, k*d, a.Sum)
	if err != nil {
		return nil, st, err
	}
	var us [accumStats]uint64
	for i := range us {
		if us[i], err = netcluster.Uint64At(b, off+8*i); err != nil {
			return nil, st, err
		}
	}
	st.DistCalcs, st.PrunedC1, st.PrunedC2, st.PrunedC3 = us[0], us[1], us[2], us[3]
	st.RowsChanged, st.ActiveRows = int(us[4]), int(us[5])
	st.BytesWanted, st.BytesRead, st.RowCacheHits = us[6], us[7], us[8]
	return a, st, nil
}
