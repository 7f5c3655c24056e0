package shardserve

import (
	"fmt"
	"testing"

	"knor/internal/matrix"
	"knor/internal/serve"
)

// seqCentroids builds a k×d matrix whose row i is filled with
// distinguishable values, so shard contents can be checked by value.
func seqCentroids(k, d int, base float64) *matrix.Dense {
	c := matrix.NewDense(k, d)
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			c.Set(i, j, base+float64(i)+float64(j)/100)
		}
	}
	return c
}

func TestShardRegistrySplit(t *testing.T) {
	sr := NewShardRegistry(3)
	defer sr.Close()
	cents := seqCentroids(7, 4, 0)
	v, err := sr.Publish("m", cents)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish version %d, want 1", v)
	}
	version, offsets, ok := sr.Split("m")
	if !ok || version != 1 {
		t.Fatalf("Split: version=%d ok=%v", version, ok)
	}
	// 7 rows over 3 machines: 3/2/2, contiguous.
	want := []int{0, 3, 5, 7}
	if len(offsets) != len(want) {
		t.Fatalf("offsets %v, want %v", offsets, want)
	}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets %v, want %v", offsets, want)
		}
	}
	// Every shard registry holds exactly its rows, same version. With
	// R=1 over a fully-live cluster, shard i lands on machine i, keyed
	// by ShardKey so one machine could hold several shards.
	for i := 0; i < 3; i++ {
		m, ok := sr.Registry(i).Get(ShardKey("m", i))
		if !ok {
			t.Fatalf("machine %d has no shard", i)
		}
		if m.Version != 1 {
			t.Fatalf("machine %d shard version %d", i, m.Version)
		}
		lo, hi := offsets[i], offsets[i+1]
		if m.K() != hi-lo {
			t.Fatalf("machine %d shard has %d rows, want %d", i, m.K(), hi-lo)
		}
		for r := 0; r < m.K(); r++ {
			if got, want := m.Centroids.At(r, 0), cents.At(lo+r, 0); got != want {
				t.Fatalf("machine %d row %d = %g, want global row %d = %g", i, r, got, lo+r, want)
			}
		}
	}
}

// TestShardRegistryRebalance publishes a shrinking k: the split must
// re-partition and machines beyond the new shard count must drop the
// model so no stale snapshot can answer.
func TestShardRegistryRebalance(t *testing.T) {
	sr := NewShardRegistry(4)
	defer sr.Close()
	if _, err := sr.Publish("m", seqCentroids(8, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Publish("m", seqCentroids(2, 3, 100)); err != nil {
		t.Fatal(err)
	}
	version, offsets, _ := sr.Split("m")
	if version != 2 || len(offsets) != 3 {
		t.Fatalf("after rebalance: version=%d offsets=%v", version, offsets)
	}
	for i := 0; i < 2; i++ {
		m, ok := sr.Registry(i).Get(ShardKey("m", i))
		if !ok || m.Version != 2 || m.K() != 1 {
			t.Fatalf("machine %d: ok=%v", i, ok)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := sr.Registry(i).Get(ShardKey("m", i)); ok {
			t.Fatalf("machine %d still holds a stale shard after k shrank", i)
		}
	}
	// Growing again re-occupies the tail machines.
	if _, err := sr.Publish("m", seqCentroids(9, 3, 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m, ok := sr.Registry(i).Get(ShardKey("m", i))
		if !ok || m.Version != 3 {
			t.Fatalf("machine %d after regrow: ok=%v", i, ok)
		}
	}
}

// TestShardRegistryAttach mirrors a primary registry: existing models,
// future publishes (version numbers preserved), across a k change.
func TestShardRegistryAttach(t *testing.T) {
	primary := serve.NewRegistry(4)
	if _, err := primary.Publish("a", seqCentroids(5, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Publish("a", seqCentroids(5, 3, 10)); err != nil {
		t.Fatal(err)
	}

	sr := NewShardRegistry(2)

	defer sr.Close()
	if err := sr.Attach(primary); err != nil {
		t.Fatal(err)
	}
	version, _, ok := sr.Split("a")
	if !ok || version != 2 {
		t.Fatalf("mirrored version %d ok=%v, want 2", version, ok)
	}

	// A publish after Attach propagates with the primary's version.
	if _, err := primary.Publish("a", seqCentroids(5, 3, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Publish("b", seqCentroids(1, 3, 30)); err != nil {
		t.Fatal(err)
	}
	if version, _, _ = sr.Split("a"); version != 3 {
		t.Fatalf("post-attach publish not mirrored: version %d", version)
	}
	if version, offsets, ok := sr.Split("b"); !ok || version != 1 || len(offsets) != 2 {
		t.Fatalf("model b: version=%d offsets=%v ok=%v", version, offsets, ok)
	}
	m0, _ := sr.Registry(0).Get(ShardKey("a", 0))
	if m0.Version != 3 {
		t.Fatalf("shard 0 of a at version %d, want 3", m0.Version)
	}
	m0b, ok := sr.Registry(0).Get(ShardKey("b", 0))
	if !ok || m0b.K() != 1 {
		t.Fatalf("model b shard: ok=%v", ok)
	}
	if _, ok := sr.Registry(1).Get(ShardKey("b", 0)); ok {
		t.Fatal("k=1 model must occupy only machine 0")
	}
}

func TestShardRegistryDrop(t *testing.T) {
	sr := NewShardRegistry(2)
	defer sr.Close()
	if _, err := sr.Publish("m", seqCentroids(4, 2, 0)); err != nil {
		t.Fatal(err)
	}
	sr.Drop("m")
	if _, _, ok := sr.Split("m"); ok {
		t.Fatal("split survived Drop")
	}
	for i := 0; i < 2; i++ {
		if _, ok := sr.Registry(i).Get(ShardKey("m", i)); ok {
			t.Fatalf("machine %d still holds dropped model", i)
		}
	}
}

func TestShardRegistryErrors(t *testing.T) {
	sr := NewShardRegistry(2)
	defer sr.Close()
	if _, err := sr.Publish("m", nil); err == nil {
		t.Error("nil centroids accepted")
	}
	if _, err := sr.Publish("m", matrix.NewDense(0, 3)); err == nil {
		t.Error("empty centroids accepted")
	}
	if _, err := sr.Publish("m", seqCentroids(4, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Publish("m", seqCentroids(4, 3, 0)); err == nil {
		t.Error("dims change accepted")
	}
	// The failed publish must not have bumped the version.
	if v, _, _ := sr.Split("m"); v != 1 {
		t.Errorf("version after failed publish: %d, want 1", v)
	}
}

func ExampleShardRegistry() {
	sr := NewShardRegistry(3)
	defer sr.Close()
	cents := seqCentroids(10, 4, 0)
	v, _ := sr.Publish("users", cents)
	_, offsets, _ := sr.Split("users")
	fmt.Println("version", v, "offsets", offsets)
	// Output:
	// version 1 offsets [0 4 7 10]
}
