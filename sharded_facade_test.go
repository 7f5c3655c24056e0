package knor_test

import (
	"runtime"
	"testing"
	"time"

	"knor"
)

// TestShardedAssignerCloseStopsPeers: NewShardedAssigner starts a hub
// and in-process peers behind the returned Assigner, and its Close must
// stop all of them — a construct/Close cycle leaves no goroutine
// behind. The assigner also answers exactly like the single-node path
// on the way.
func TestShardedAssignerCloseStopsPeers(t *testing.T) {
	data := knor.Generate(knor.Spec{
		Kind: knor.NaturalClusters, N: 200, D: 4, Clusters: 6, Spread: 0.05, Seed: 5,
	})
	reg := knor.NewRegistry(1)
	if _, err := reg.Publish("m", data); err != nil {
		t.Fatal(err)
	}
	single := knor.NewAssigner(reg, knor.BatcherOptions{MaxWait: time.Microsecond}, knor.Precision64)
	want, err := single.AssignRows("m", data)
	single.Close()
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		a, err := knor.NewShardedAssigner(reg, 3, knor.BatcherOptions{MaxWait: time.Microsecond}, knor.Precision64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.AssignRows("m", data)
		a.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d row %d: sharded %+v, single-node %+v", cycle, i, got[i], want[i])
			}
		}
	}
	// Goroutines finish their last instructions after Close returns;
	// give them a moment, then require the count back at its start.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after three NewShardedAssigner/Close cycles:\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
