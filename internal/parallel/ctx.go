package parallel

import (
	"context"
	"sync"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// ForCtx is the context-aware For: it cuts [0, n) into exactly the same
// chunks as For (the determinism contract — chunk boundaries depend only
// on n, grain and the configured width) but checks ctx before
// dispatching each chunk. On cancellation it stops scheduling new
// chunks, waits for the in-flight ones to finish, and returns an error
// wrapping auerr.ErrCanceled and ctx's cause. Chunks that did run
// produced exactly the bytes the sequential execution would have — work
// already completed is preserved, never half-written.
//
// A nil error means every chunk ran. Panics in any chunk resurface on
// the calling goroutine, as with For.
func ForCtx(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return auerr.Canceled(ctx)
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if w <= 1 || n <= grain {
		fn(0, n)
		return nil
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return nil
	}
	ensurePool(chunks - 1)
	var wg sync.WaitGroup
	var pnc panicBox
	canceled := false
	base, rem := n/chunks, n%chunks
	lo := 0
	for c := 0; c < chunks; c++ {
		hi := lo + base
		if c < rem {
			hi++
		}
		if ctx.Err() != nil {
			canceled = true
			break
		}
		wg.Add(1)
		t := task{fn: fn, lo: lo, hi: hi, wg: &wg, pnc: &pnc}
		if c == chunks-1 {
			t.run()
		} else {
			select {
			case taskQueue <- t:
			default:
				t.run()
			}
		}
		lo = hi
	}
	wg.Wait()
	pnc.rethrow()
	if canceled {
		return auerr.Canceled(ctx)
	}
	return nil
}
