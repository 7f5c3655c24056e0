package dist

import (
	"testing"
	"testing/quick"

	"knor/internal/matrix"
)

func TestPartitionBalanced(t *testing.T) {
	for _, tc := range []struct {
		n, machines int
	}{
		{10, 1}, {10, 2}, {10, 3}, {11, 4}, {7, 7}, {1000, 16},
	} {
		shards := Partition(tc.n, tc.machines)
		if len(shards) != tc.machines {
			t.Fatalf("n=%d m=%d: %d shards", tc.n, tc.machines, len(shards))
		}
		lo, min, max := 0, tc.n, 0
		for _, s := range shards {
			if s.Lo != lo {
				t.Fatalf("n=%d m=%d: shard starts at %d, want %d", tc.n, tc.machines, s.Lo, lo)
			}
			if s.Rows() < 1 {
				t.Fatalf("n=%d m=%d: empty shard", tc.n, tc.machines)
			}
			if s.Rows() < min {
				min = s.Rows()
			}
			if s.Rows() > max {
				max = s.Rows()
			}
			lo = s.Hi
		}
		if lo != tc.n {
			t.Fatalf("n=%d m=%d: shards cover %d rows", tc.n, tc.machines, lo)
		}
		if max-min > 1 {
			t.Fatalf("n=%d m=%d: imbalance %d vs %d rows", tc.n, tc.machines, min, max)
		}
	}
}

func TestPartitionPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct{ n, machines int }{{5, 6}, {5, 0}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Partition(%d, %d) did not panic", tc.n, tc.machines)
				}
			}()
			Partition(tc.n, tc.machines)
		}()
	}
}

func TestShardViewAliasesStorage(t *testing.T) {
	m := matrix.NewDense(6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	sh := Shard{Lo: 2, Hi: 5}
	v := ViewOf(sh, m)
	if v.Rows() != 3 || v.Cols() != 3 {
		t.Fatalf("view shape %dx%d", v.Rows(), v.Cols())
	}
	if v.At(0, 1) != m.At(2, 1) {
		t.Fatalf("view row 0 = %v, want global row 2", v.Row(0))
	}
	// Zero copy: writes through the view land in the global matrix.
	v.Set(1, 2, -1)
	if m.At(3, 2) != -1 {
		t.Fatal("view does not alias the global storage")
	}
}

func TestShardTasks(t *testing.T) {
	sh := Shard{Lo: 0, Hi: 1000}
	if got := sh.Tasks(256); got != 4 {
		t.Fatalf("Tasks(256) = %d", got)
	}
	if got := sh.Tasks(1000); got != 1 {
		t.Fatalf("Tasks(1000) = %d", got)
	}
	if got := sh.Tasks(0); got != 0 {
		t.Fatalf("Tasks(0) = %d", got)
	}
}

// Property: any valid (n, machines) pair partitions into contiguous,
// non-empty, balanced shards covering exactly [0, n).
func TestPartitionProperty(t *testing.T) {
	f := func(nRaw uint16, mRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		machines := int(mRaw)%n + 1
		shards := Partition(n, machines)
		lo := 0
		for _, s := range shards {
			if s.Lo != lo || s.Rows() < n/machines || s.Rows() > n/machines+1 {
				return false
			}
			lo = s.Hi
		}
		return lo == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
