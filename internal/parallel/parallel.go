// Package parallel provides the shared worker pool behind Autonomizer's
// parallel execution layer. It shards independent units of work: the
// serving engine's batch shards (internal/serve) and the evaluation
// rollouts' episodes (env.ParallelAverageScore). The numeric kernels
// in internal/tensor stay sequential; on the networks the system builds
// a single kernel call is too small to be worth sharding.
//
// Design:
//
//   - One process-wide pool of helper goroutines, created lazily on the
//     first parallel call. Tasks are submitted non-blocking; when every
//     helper is busy (or the pool is empty on a single-core machine) the
//     submitting goroutine runs the task inline, which makes nested
//     parallel calls deadlock-free by construction.
//
//   - The *configured width* (Workers) and the *physical pool* are
//     deliberately distinct. Width controls how a range is sharded and is
//     part of the deterministic contract callers rely on; the pool only
//     controls how many shards physically run at once. Every caller's
//     shards write disjoint outputs that are reduced in a fixed order,
//     so results are bit-identical at any width on any machine.
//
// The default width is GOMAXPROCS, overridable by the
// AUTONOMIZER_WORKERS environment variable and programmatically by
// SetWorkers.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/obs"
)

// parseWorkers validates an AUTONOMIZER_WORKERS value: a positive
// decimal integer.
func parseWorkers(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("parallel: AUTONOMIZER_WORKERS=%q is not an integer", s)
	}
	if n < 1 {
		return 0, fmt.Errorf("parallel: AUTONOMIZER_WORKERS=%d must be positive", n)
	}
	return n, nil
}

// defaultWorkers resolves the initial width: AUTONOMIZER_WORKERS when set
// to a positive integer, else GOMAXPROCS. A malformed value is rejected
// loudly (logged warning) rather than silently misconfiguring the pool.
func defaultWorkers() int {
	if s := os.Getenv("AUTONOMIZER_WORKERS"); s != "" {
		n, err := parseWorkers(s)
		if err != nil {
			obs.Logger().Warn("bad AUTONOMIZER_WORKERS; falling back to GOMAXPROCS",
				"err", err, "gomaxprocs", runtime.GOMAXPROCS(0))
			return runtime.GOMAXPROCS(0)
		}
		return n
	}
	return runtime.GOMAXPROCS(0)
}

var width atomic.Int64

func init() { width.Store(int64(defaultWorkers())) }

// Workers returns the configured parallel width. A width of 1 disables
// parallel execution everywhere.
func Workers() int { return int(width.Load()) }

// SetWorkers sets the parallel width and returns the previous value so
// tests and benchmarks can restore it with defer. n < 1 is clamped to 1.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(width.Swap(int64(n)))
}

// panicBox collects the first panic raised by any shard of a parallel
// call, so it can be rethrown on the calling goroutine. Without this, a
// panic inside a pooled helper would crash the whole process with no
// chance for the runtime's recover boundary to turn it into an error.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

func (b *panicBox) store(r any) {
	b.mu.Lock()
	if !b.set {
		b.val, b.set = r, true
	}
	b.mu.Unlock()
}

// rethrow re-raises the captured panic, if any, on the caller.
func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}

// poolMetrics holds the worker-pool instruments (tasks queued/running,
// chunk counts, queue wait). They are resolved lazily on the first
// multi-chunk For call after telemetry is enabled; while disabled,
// metrics() returns nil and every use below short-circuits, keeping the
// dispatch path free of clock reads.
type poolMetrics struct {
	chunks  *obs.Counter
	running *obs.Gauge
	wait    *obs.Histogram
}

var pm atomic.Pointer[poolMetrics]

func metrics() *poolMetrics {
	if m := pm.Load(); m != nil {
		return m
	}
	reg := obs.Default()
	if reg == nil {
		return nil
	}
	m := &poolMetrics{
		chunks: reg.Counter("autonomizer_parallel_chunks_total",
			"Chunks dispatched by parallel For calls.", nil),
		running: reg.Gauge("autonomizer_parallel_tasks_running",
			"Pool tasks currently executing (including inline-run chunks).", nil),
		wait: reg.Histogram("autonomizer_parallel_chunk_wait_seconds",
			"Time a queued chunk waited before a helper picked it up.", nil, nil),
	}
	reg.GaugeFunc("autonomizer_parallel_workers",
		"Configured parallel width (the sharding factor).", nil,
		func() float64 { return float64(Workers()) })
	reg.GaugeFunc("autonomizer_parallel_pool_size",
		"Helper goroutines in the process-wide pool.", nil,
		func() float64 { poolMu.Lock(); defer poolMu.Unlock(); return float64(poolSize) })
	reg.GaugeFunc("autonomizer_parallel_tasks_queued",
		"Chunks sitting in the task queue awaiting a helper.", nil,
		func() float64 { return float64(len(taskQueue)) })
	if !pm.CompareAndSwap(nil, m) {
		return pm.Load()
	}
	return m
}

// resetMetricsForTest drops the cached instruments so tests can attach
// a fresh registry.
func resetMetricsForTest() { pm.Store(nil) }

// task is one shard of a parallel-for: run fn over [lo, hi) and signal wg.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
	pnc    *panicBox
	m      *poolMetrics // nil while telemetry is disabled
	queued time.Time    // set when the task went through the queue
}

func (t task) run() {
	defer t.wg.Done()
	if t.m != nil {
		if !t.queued.IsZero() {
			t.m.wait.Observe(time.Since(t.queued).Seconds())
		}
		t.m.running.Add(1)
		defer t.m.running.Add(-1)
	}
	defer func() {
		if r := recover(); r != nil {
			t.pnc.store(r)
		}
	}()
	t.fn(t.lo, t.hi)
}

var (
	poolMu    sync.Mutex
	poolSize  int
	taskQueue = make(chan task, 256)
)

// ensurePool grows the helper pool to at least n goroutines. Helpers are
// cheap (blocked on a channel) and live for the process lifetime; the
// pool never shrinks.
func ensurePool(n int) {
	if n <= 0 {
		return
	}
	poolMu.Lock()
	for poolSize < n {
		poolSize++
		go func() {
			for t := range taskQueue {
				t.run()
			}
		}()
	}
	poolMu.Unlock()
}

// For splits [0, n) into at most Workers() contiguous chunks of at least
// grain elements each and runs fn on every chunk, returning when all
// chunks are done. Chunk boundaries depend only on n, grain and the
// configured width — never on scheduling — so kernels whose chunks write
// disjoint outputs are bit-identical at any width.
//
// Small ranges (n <= grain) and width 1 run inline with zero overhead,
// which is the sequential fallback for ranges too small to split.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	ensurePool(chunks - 1)
	m := metrics()
	if m != nil {
		m.chunks.Add(uint64(chunks))
	}
	var wg sync.WaitGroup
	var pnc panicBox
	wg.Add(chunks)
	// Even split: the first (n % chunks) chunks get one extra element.
	base, rem := n/chunks, n%chunks
	lo := 0
	for c := 0; c < chunks; c++ {
		hi := lo + base
		if c < rem {
			hi++
		}
		t := task{fn: fn, lo: lo, hi: hi, wg: &wg, pnc: &pnc, m: m}
		if c == chunks-1 {
			// Run the last chunk on the calling goroutine: the caller
			// always contributes instead of idling at Wait.
			t.run()
		} else {
			if m != nil {
				t.queued = time.Now()
			}
			select {
			case taskQueue <- t:
			default:
				// Pool saturated (e.g. nested For): run inline rather
				// than block, which keeps nesting deadlock-free.
				t.queued = time.Time{}
				t.run()
			}
		}
		lo = hi
	}
	wg.Wait()
	// A panic in any shard resurfaces here, on the calling goroutine,
	// where the runtime's recover boundary can convert it to an error.
	pnc.rethrow()
}
