package kmeans

import (
	"sync"

	"knor/internal/blas"
	"knor/internal/matrix"
)

// AccumOf is one thread's local centroid accumulator: running sums and
// counts for the next iteration's centroids (the ptC structure of
// Algorithm 1). Accums are merged pairwise in parallel at the end of
// each iteration — the funnelsort-like reduction of Section 5.2. It is
// generic over the element type; Accum is the float64 instantiation the
// oracle engines use.
type AccumOf[T blas.Float] struct {
	K, D  int
	Sum   []T     // k*d running sums
	Count []int64 // k memberships
}

// Accum is the float64 accumulator (bit-identical with the pre-generic
// implementation).
type Accum = AccumOf[float64]

// NewAccum allocates a zeroed float64 accumulator.
func NewAccum(k, d int) *Accum { return NewAccumOf[float64](k, d) }

// NewAccumOf allocates a zeroed accumulator of element type T.
func NewAccumOf[T blas.Float](k, d int) *AccumOf[T] {
	return &AccumOf[T]{K: k, D: d, Sum: make([]T, k*d), Count: make([]int64, k)}
}

// Reset zeroes the accumulator for the next iteration.
func (a *AccumOf[T]) Reset() {
	for i := range a.Sum {
		a.Sum[i] = 0
	}
	for i := range a.Count {
		a.Count[i] = 0
	}
}

// Add accumulates a row into cluster c.
func (a *AccumOf[T]) Add(row []T, c int) {
	dst := a.Sum[c*a.D : (c+1)*a.D]
	_ = row[len(dst)-1]
	for j := range dst {
		dst[j] += row[j]
	}
	a.Count[c]++
}

// Remove subtracts a row from cluster c (used for incremental updates
// where a row migrates between clusters without a full rebuild).
func (a *AccumOf[T]) Remove(row []T, c int) {
	dst := a.Sum[c*a.D : (c+1)*a.D]
	_ = row[len(dst)-1]
	for j := range dst {
		dst[j] -= row[j]
	}
	a.Count[c]--
}

// Merge folds other into a.
func (a *AccumOf[T]) Merge(other *AccumOf[T]) {
	for i := range a.Sum {
		a.Sum[i] += other.Sum[i]
	}
	for i := range a.Count {
		a.Count[i] += other.Count[i]
	}
}

// MergeTree reduces float64 accumulators into accs[0]. (Kept
// non-generic so untyped nil calls need no type argument; MergeTreeOf
// is the generic variant.)
func MergeTree(accs []*Accum) *Accum { return MergeTreeOf(accs) }

// MergeTreeOf reduces the accumulators into accs[0] with a parallel
// pairwise tree (O(log T) levels), matching the paper's reduction. The
// merge order is deterministic: level ℓ merges accs[i] ← accs[i+stride].
func MergeTreeOf[T blas.Float](accs []*AccumOf[T]) *AccumOf[T] {
	n := len(accs)
	if n == 0 {
		return nil
	}
	for stride := 1; stride < n; stride *= 2 {
		var wg sync.WaitGroup
		for i := 0; i+stride < n; i += 2 * stride {
			wg.Add(1)
			go func(dst, src int) {
				defer wg.Done()
				accs[dst].Merge(accs[src])
			}(i, i+stride)
		}
		wg.Wait()
	}
	return accs[0]
}

// Centroids finalises the accumulator into mean centroids. Clusters
// with no members keep their previous centroid (prev row), the standard
// empty-cluster policy for Lloyd's.
func (a *AccumOf[T]) Centroids(prev *matrix.Mat[T]) *matrix.Mat[T] {
	out := matrix.New[T](a.K, a.D)
	for c := 0; c < a.K; c++ {
		row := out.Row(c)
		if a.Count[c] == 0 {
			copy(row, prev.Row(c))
			continue
		}
		inv := 1 / T(a.Count[c])
		src := a.Sum[c*a.D : (c+1)*a.D]
		for j := range row {
			row[j] = src[j] * inv
		}
	}
	return out
}

// SerializedBytes returns the wire size of the accumulator (k*d sums +
// k counts), the payload knord's collective moves per machine.
func (a *AccumOf[T]) SerializedBytes() int {
	return a.K*a.D*blas.ElemBytes[T]() + a.K*8
}
