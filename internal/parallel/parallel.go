// Package parallel is Autonomizer's fork-join helper. It shards
// independent units of work: the serving engine's batch shards
// (internal/serve) and the evaluation rollouts' episodes
// (env.ParallelAverageScore). The numeric kernels in internal/tensor
// stay sequential; on the networks the system builds a single kernel
// call is too small to be worth sharding.
//
// The width is GOMAXPROCS. It decides how a range is cut, and the cut is
// part of the deterministic contract callers rely on: every caller's
// shards write disjoint outputs that are reduced in a fixed order, so
// results are bit-identical at any width on any machine.
package parallel

import (
	"runtime"
	"sync"
)

// Workers returns the parallel width, GOMAXPROCS. A width of 1 runs
// every For inline.
func Workers() int { return runtime.GOMAXPROCS(0) }

// panicBox collects the first panic raised by any shard of a parallel
// call, so it can be rethrown on the calling goroutine. Without this, a
// panic inside a shard's goroutine would crash the whole process with no
// chance for the runtime's recover boundary to turn it into an error.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

// run calls fn(lo, hi), capturing a panic instead of letting it unwind.
func (b *panicBox) run(fn func(lo, hi int), lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			if !b.set {
				b.val, b.set = r, true
			}
			b.mu.Unlock()
		}
	}()
	fn(lo, hi)
}

// rethrow re-raises the captured panic, if any, on the caller.
func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}

// For splits [0, n) into min(n, Workers()) contiguous chunks and runs fn
// on every chunk, returning when all chunks are done. Chunk boundaries
// depend only on n and the width — never on scheduling — so callers
// whose chunks write disjoint outputs are bit-identical at any width.
//
// The caller runs the last chunk; every other chunk runs on a goroutine
// started for this call, so nested calls cannot deadlock. A single chunk
// runs inline with no goroutine.
func For(n int, fn func(lo, hi int)) {
	chunks := min(n, Workers())
	if chunks <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var pnc panicBox
	wg.Add(chunks - 1)
	// Even split: the first (n % chunks) chunks get one extra element.
	base, rem := n/chunks, n%chunks
	start := func(c int) int { return c*base + min(c, rem) }
	for c := 0; c < chunks-1; c++ {
		lo, hi := start(c), start(c+1)
		go func() {
			defer wg.Done()
			pnc.run(fn, lo, hi)
		}()
	}
	pnc.run(fn, start(chunks-1), n)
	wg.Wait()
	// A panic in any shard resurfaces here, on the calling goroutine,
	// where the runtime's recover boundary can convert it to an error.
	pnc.rethrow()
}
