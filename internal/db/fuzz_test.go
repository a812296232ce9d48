package db

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// FuzzStoreLoad feeds arbitrary bytes to the store image decoder — the
// format Save writes and the WAL's snapshot records carry — starting
// from the corpus in testdata/fuzz. It must never panic, every failure
// must classify as auerr.ErrCorruptStore, an accepted image must
// re-encode to the identical bytes, and a length prefix must not make
// the decoder allocate beyond a small multiple of the input it was
// actually given.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzing engine allocates on other goroutines, so the
		// smaller of two measured loads, each into a fresh Store, is the
		// decoder's own cost.
		var s *Store
		var err error
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 2; i++ {
			s = New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = s.Load(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := uint64(32*len(data) + 16<<10); alloc > budget {
			t.Fatalf("loading %d bytes allocated %d bytes, want <= %d", len(data), alloc, budget)
		}
		if err != nil {
			if !errors.Is(err, auerr.ErrCorruptStore) {
				t.Fatalf("Load error %v does not wrap ErrCorruptStore", err)
			}
			return
		}
		var image bytes.Buffer
		if err := s.Save(&image); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image.Bytes(), data) {
			t.Fatalf("re-encoded store % x differs from the input % x", image.Bytes(), data)
		}
	})
}
