package dist

import (
	"errors"
	"fmt"
	"sync"

	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
)

// Mode selects the distributed execution strategy (Section 8.9).
type Mode int

const (
	// ModeKnord is the paper's design: NUMA-aware per-machine engines
	// merged by a decentralised ring allgather and a fold on every
	// machine.
	ModeKnord Mode = iota
	// ModeMPI is the routine MPI port: the same collective over
	// NUMA-oblivious engines.
	ModeMPI
	// ModeMLlib emulates Spark MLlib's master-worker execution: serial
	// task dispatch, boxed rows, gather-to-driver aggregation and a
	// broadcast of the merged model.
	ModeMLlib
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeKnord:
		return "knord"
	case ModeMPI:
		return "mpi"
	case ModeMLlib:
		return "mllib"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls a distributed run.
type Config struct {
	// Machines is the cluster size: simulated machines for Run, the
	// transport's rank count for RunTransport.
	Machines int
	// Mode selects the execution strategy.
	Mode Mode
	// Kmeans configures each machine's engine; Threads and Topo are per
	// machine, so the cluster runs Machines×Threads workers in total.
	Kmeans kmeans.Config
	// MLlibTaskOverhead is the serial driver-side cost of dispatching
	// one partition task (seconds), paid every iteration in ModeMLlib
	// on the simulated clocks. Zero disables dispatch accounting.
	MLlibTaskOverhead float64
}

// validate checks the cluster-level configuration against n data rows.
func (c Config) validate(n int) error {
	if c.Machines < 1 {
		return fmt.Errorf("dist: Machines must be >= 1, got %d", c.Machines)
	}
	if c.Machines > n {
		return fmt.Errorf("dist: Machines=%d exceeds data rows=%d", c.Machines, n)
	}
	switch c.Mode {
	case ModeKnord, ModeMPI, ModeMLlib:
	default:
		return fmt.Errorf("dist: unknown mode %d", int(c.Mode))
	}
	if c.MLlibTaskOverhead < 0 {
		return fmt.Errorf("dist: negative MLlibTaskOverhead %g", c.MLlibTaskOverhead)
	}
	return nil
}

// Run executes the distributed module over a simulated cluster and
// returns an aggregate Result: global assignments in input row order,
// the converged centroids, cluster-wide per-iteration stats, and the
// total memory footprint summed across machines. It is
// RunPrecision at Precision64.
func Run(data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	return RunPrecision(data, cfg, kmeans.Precision64)
}

// RunPrecision is Run at the requested element precision. The M
// machines are M goroutines running RunTransport over one
// netcluster.SimGroup, so the simulated cluster moves exactly the
// frames a multi-process run moves, and its network time is the
// group's per-frame alpha-beta charge. The result is rank 0's.
func RunPrecision(data *matrix.Dense, cfg Config, p kmeans.Precision) (*kmeans.Result, error) {
	if p == kmeans.Precision32 {
		return runSim[float32](data, cfg)
	}
	return runSim[float64](data, cfg)
}

func runSim[T blas.Float](data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	j, err := newJob[T](data, cfg)
	if err != nil {
		return nil, err
	}
	g := netcluster.NewSimGroup(cfg.Machines, j.kcfg.Model)
	defer g.Close()
	results := make([]*kmeans.Result, cfg.Machines)
	errs := make([]error, cfg.Machines)
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if results[r], errs[r] = j.run(g.Transport(r)); errs[r] != nil {
				g.Close() // unblock the ranks waiting on this one's frames
			}
		}(r)
	}
	wg.Wait()
	if err := rankError(errs); err != nil {
		return nil, err
	}
	return results[0], nil
}

// rankError picks the failure a run reports: the lowest rank's error
// other than the group teardown that failure caused in the other ranks.
func rankError(errs []error) error {
	var closed error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, netcluster.ErrClosed):
			return err
		case closed == nil:
			closed = err
		}
	}
	return closed
}

// aggregateStats sums per-machine iteration stats into cluster totals.
func aggregateStats(stats []kmeans.IterStats) kmeans.IterStats {
	var st kmeans.IterStats
	for i := range stats {
		st.DistCalcs += stats[i].DistCalcs
		st.PrunedC1 += stats[i].PrunedC1
		st.PrunedC2 += stats[i].PrunedC2
		st.PrunedC3 += stats[i].PrunedC3
		st.RowsChanged += stats[i].RowsChanged
		st.ActiveRows += stats[i].ActiveRows
		st.BytesWanted += stats[i].BytesWanted
		st.BytesRead += stats[i].BytesRead
		st.RowCacheHits += stats[i].RowCacheHits
	}
	return st
}
