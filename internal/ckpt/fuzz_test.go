package ckpt

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// FuzzDecodeFitCheckpoint feeds arbitrary bytes to the fit-checkpoint
// decoder the durable queue replays from disk on resume, starting from
// the corpus in testdata/fuzz. It must never panic, every failure must
// classify as auerr.ErrCorruptStore, an accepted image must re-encode to
// the identical bytes, and a length prefix must not make the decoder
// allocate beyond a small multiple of the input it was actually given.
func FuzzDecodeFitCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzing engine allocates on other goroutines, so the
		// smaller of two measured decodes is the decoder's own cost.
		var c *FitCheckpoint
		var err error
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 2; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err = DecodeFitCheckpoint(data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := uint64(4*len(data) + 4096); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", len(data), alloc, budget)
		}
		if err != nil {
			if !errors.Is(err, auerr.ErrCorruptStore) {
				t.Fatalf("DecodeFitCheckpoint error %v does not wrap ErrCorruptStore", err)
			}
			return
		}
		if image := c.Encode(); !bytes.Equal(image, data) {
			t.Fatalf("re-encoded checkpoint % x differs from the input % x", image, data)
		}
	})
}
