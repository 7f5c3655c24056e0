package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramQuantileWithinBucket is the accuracy contract behind
// serving's p50/p95/p99: /v1/stats reads them from the edge request
// histogram, so over realistic latency streams (seeded log-normals on
// DefLatencyBuckets) Quantile(q) must land in the same bucket as the
// exact nearest-rank quantile of the observed samples — error within
// bucket resolution. An exact quantile beyond the last finite bound
// must be reported as that bound.
func TestHistogramQuantileWithinBucket(t *testing.T) {
	bounds := DefLatencyBuckets()
	bucketOf := func(v float64) int {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		return i
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		median := math.Exp(math.Log(100e-6) + rng.Float64()*math.Log(1000)) // 100µs .. 100ms
		sigma := 0.2 + 1.3*rng.Float64()
		h := NewHistogram(bounds)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = median * math.Exp(sigma*rng.NormFloat64())
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			exact := samples[int(math.Ceil(q*float64(n)))-1]
			est := h.Quantile(q)
			want := bucketOf(exact)
			if want == len(bounds) {
				if est != bounds[len(bounds)-1] {
					t.Errorf("seed %d q=%g: exact %g beyond last bound, estimate %g", seed, q, exact, est)
				}
				continue
			}
			if got := bucketOf(est); got != want {
				t.Errorf("seed %d n=%d q=%g: estimate %g in bucket %d, exact %g in bucket %d",
					seed, n, q, est, got, exact, want)
			}
		}
	}
}
