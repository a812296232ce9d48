package parallel

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// TestForCoversRange checks every element is visited exactly once for a
// spread of range sizes and widths.
func TestForCoversRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, w := range []int{1, 2, 3, 8, 13} {
		runtime.GOMAXPROCS(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("w=%d n=%d: bad chunk [%d,%d)", w, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: element %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestForChunkBoundariesDeterministic checks that the chunk decomposition
// depends only on (n, width) — the contract the deterministic callers
// rely on.
func TestForChunkBoundariesDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	collect := func() []int {
		var mu atomic.Int64
		bounds := make([]int, 101)
		For(100, func(lo, hi int) {
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
	// into min(n, width) chunks, the first n%chunks one longer.
	for _, tc := range []struct {
		n, width int
		want     [][2]int
	}{
		{100, 4, [][2]int{{0, 25}, {25, 50}, {50, 75}, {75, 100}}},
		{10, 4, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, [][2]int{{0, 5}}},
	} {
		runtime.GOMAXPROCS(tc.width)
		var mu sync.Mutex
		var got [][2]int
		For(tc.n, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("For(%d) at width %d: chunks %v, want %v", tc.n, tc.width, got, tc.want)
		}
	}
}

// TestNestedForDoesNotDeadlock exercises For inside For at a width larger
// than the physical core count.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var total atomic.Int64
	For(16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(64, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 16*64 {
		t.Fatalf("nested For total = %d, want %d", total.Load(), 16*64)
	}
}

func TestForReraisesShardPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic from shard was not rethrown on the caller")
		}
	}()
	For(64, func(lo, hi int) {
		if lo == 0 {
			auerr.Failf("parallel test: shard invariant")
		}
	})
}
