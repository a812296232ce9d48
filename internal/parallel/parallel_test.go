package parallel

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// TestForCoversRange checks every element is visited exactly once for a
// spread of range sizes, grains and widths.
func TestForCoversRange(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, w := range []int{1, 2, 3, 8, 13} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 8, 1000} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("w=%d n=%d grain=%d: bad chunk [%d,%d)", w, n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("w=%d n=%d grain=%d: element %d visited %d times", w, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestForChunkBoundariesDeterministic checks that the chunk decomposition
// depends only on (n, grain, width) — the contract the deterministic
// kernels rely on.
func TestForChunkBoundariesDeterministic(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	collect := func() []int {
		var mu atomic.Int64
		bounds := make([]int, 101)
		For(100, 10, func(lo, hi int) {
			mu.Add(1)
			bounds[lo] = hi
		})
		return bounds
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunking not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// The boundaries themselves are part of the contract: an even split
	// into min(ceil(n/grain), width) chunks, the first n%chunks one longer.
	for _, tc := range []struct {
		n, grain int
		want     [][2]int
	}{
		{100, 10, [][2]int{{0, 25}, {25, 50}, {50, 75}, {75, 100}}},
		{10, 3, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{5, 8, [][2]int{{0, 5}}},
	} {
		var mu sync.Mutex
		var got [][2]int
		For(tc.n, tc.grain, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("For(%d, %d) at width 4: chunks %v, want %v", tc.n, tc.grain, got, tc.want)
		}
	}
}

// TestNestedForDoesNotDeadlock exercises For inside For at a width larger
// than the physical core count, the shape a sharded TrainBatch running
// sharded conv kernels produces.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	var total atomic.Int64
	For(16, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(64, 4, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 16*64 {
		t.Fatalf("nested For total = %d, want %d", total.Load(), 16*64)
	}
}

// TestSetWorkersClamp checks the floor of 1 and the restore idiom.
func TestSetWorkersClamp(t *testing.T) {
	prev := SetWorkers(-3)
	if Workers() != 1 {
		t.Errorf("SetWorkers(-3) left width %d", Workers())
	}
	SetWorkers(prev)
	if Workers() != prev {
		t.Errorf("restore failed: %d vs %d", Workers(), prev)
	}
}

func TestParseWorkers(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"4", 4, true},
		{" 2 ", 2, true},
		{"1", 1, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"eight", 0, false},
		{"4.5", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		n, err := parseWorkers(c.in)
		if c.ok && (err != nil || n != c.want) {
			t.Errorf("parseWorkers(%q) = (%d, %v), want (%d, nil)", c.in, n, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseWorkers(%q) accepted, want error", c.in)
		}
	}
}

func TestDefaultWorkersRejectsGarbageEnv(t *testing.T) {
	for _, bad := range []string{"banana", "-1", "0"} {
		t.Setenv("AUTONOMIZER_WORKERS", bad)
		if got := defaultWorkers(); got < 1 {
			t.Errorf("defaultWorkers() with AUTONOMIZER_WORKERS=%q = %d, want >= 1 (GOMAXPROCS fallback)", bad, got)
		}
	}
	t.Setenv("AUTONOMIZER_WORKERS", "3")
	if got := defaultWorkers(); got != 3 {
		t.Errorf("defaultWorkers() with AUTONOMIZER_WORKERS=3 = %d", got)
	}
}

func TestForReraisesShardPanicOnCaller(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic from shard was not rethrown on the caller")
		}
	}()
	For(64, 1, func(lo, hi int) {
		if lo == 0 {
			auerr.Failf("parallel test: shard invariant")
		}
	})
}
