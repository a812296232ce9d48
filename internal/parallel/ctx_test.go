package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

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

func TestForCtxCompletesAllChunks(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	out := make([]int, 1000)
	if err := ForCtx(context.Background(), len(out), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * 2
		}
	}); err != nil {
		t.Fatalf("ForCtx: %v", err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	err := ForCtx(ctx, 100, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if !errors.Is(err, auerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d elements ran after pre-canceled context", ran.Load())
	}
}

func TestForCtxStopsSchedulingMidway(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	ctx, cancel := context.WithCancel(context.Background())
	ran := atomic.Int64{}
	// Cancel from inside the first chunk that runs: later chunks not yet
	// dispatched must be skipped, and completed work must be preserved.
	err := ForCtx(ctx, 8, 1, func(lo, hi int) {
		cancel()
		ran.Add(int64(hi - lo))
	})
	if err != nil && !errors.Is(err, auerr.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	// At least one chunk ran (the canceling one); the test mainly
	// asserts no deadlock and a well-typed error.
	if ran.Load() == 0 {
		t.Error("no chunk ran at all")
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
