package dist

import (
	"knor/internal/blas"
	"knor/internal/matrix"
)

// Shard is one machine's contiguous row range [Lo, Hi) of the global
// matrix. Contiguity matters twice: shard-local row indices translate
// to global ones by a constant offset (so assignments concatenate in
// input order), and a shard is a zero-copy view into the global
// row-major storage.
type Shard struct {
	Lo, Hi int
}

// Rows returns the shard's row count.
func (s Shard) Rows() int { return s.Hi - s.Lo }

// Tasks returns how many row-block tasks of the given size the shard's
// engine schedules per iteration.
func (s Shard) Tasks(taskSize int) int {
	if taskSize <= 0 {
		return 0
	}
	return (s.Rows() + taskSize - 1) / taskSize
}

// ViewOf returns the shard's rows of m as a zero-copy matrix aliasing
// m's storage — the analogue of each cluster machine loading its
// partition of the row-major input file.
func ViewOf[T blas.Float](s Shard, m *matrix.Mat[T]) *matrix.Mat[T] {
	d := m.Cols()
	return &matrix.Mat[T]{
		RowsN: s.Rows(),
		ColsN: d,
		Data:  m.Data[s.Lo*d : s.Hi*d],
	}
}

// Partition splits n rows across machines as evenly as contiguous
// ranges allow: every shard gets n/machines rows and the first
// n%machines shards one extra, so shard sizes differ by at most one row
// (the static balance knord's row-partitioned design relies on; dynamic
// rebalance across machines is future work, cf. hp-adaptive FEM load
// balancing). Panics if machines exceeds n or either is non-positive —
// Config.validate rejects both before Run gets here.
func Partition(n, machines int) []Shard {
	if machines < 1 || n < machines {
		panic("dist: Partition needs 1 <= machines <= n")
	}
	shards := make([]Shard, machines)
	base := n / machines
	extra := n % machines
	lo := 0
	for m := range shards {
		hi := lo + base
		if m < extra {
			hi++
		}
		shards[m] = Shard{Lo: lo, Hi: hi}
		lo = hi
	}
	return shards
}
