package nn

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// FuzzUnmarshalParams feeds arbitrary bytes to the parameter loader of a
// small fixed network, starting from the corpus in testdata/fuzz. It
// must never panic, every failure must wrap auerr.ErrCorruptModel, and
// an accepted input must begin with the network's re-serialization: the
// loader consumes one image and ignores whatever follows it.
func FuzzUnmarshalParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		net := NewDNN(3, []int{4}, 2, stats.NewRNG(1))
		if err := net.UnmarshalParams(data); err != nil {
			if !errors.Is(err, auerr.ErrCorruptModel) {
				t.Fatalf("UnmarshalParams error %v does not wrap ErrCorruptModel", err)
			}
			return
		}
		image, err := net.MarshalParams()
		if err != nil {
			t.Fatalf("MarshalParams of a loaded network: %v", err)
		}
		if !bytes.HasPrefix(data, image) {
			t.Fatalf("re-serialized image % x is not a prefix of the input % x", image, data)
		}
	})
}

// FuzzUnmarshalOptState feeds arbitrary bytes to the optimizer-state
// loader that fit resume reads from a checkpoint, for Adam and for SGD
// with momentum bound to a small fixed network, starting from the
// corpus in testdata/fuzz. It must never panic, every failure must wrap
// auerr.ErrCorruptModel, a length field must not make it allocate beyond
// a small multiple of the input it was given, and an accepted state must
// re-marshal to exactly the input.
func FuzzUnmarshalOptState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, useAdam := range []bool{true, false} {
			bind := func() *Network {
				net := NewDNN(3, []int{4}, 2, stats.NewRNG(1))
				if useAdam {
					net.UseAdam(1e-3)
				} else {
					net.UseSGD(1e-2, 0.9)
				}
				return net
			}
			// The fuzzing engine allocates on other goroutines, so the
			// smaller of two measured loads is the decoder's own cost.
			var net *Network
			var err error
			alloc := uint64(math.MaxUint64)
			for i := 0; i < 2; i++ {
				net = bind()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = net.UnmarshalOptState(data)
				runtime.ReadMemStats(&after)
				alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
			}
			if budget := uint64(4*len(data) + 4096); alloc > budget {
				t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", len(data), alloc, budget)
			}
			if err != nil {
				if !errors.Is(err, auerr.ErrCorruptModel) {
					t.Fatalf("UnmarshalOptState error %v does not wrap ErrCorruptModel", err)
				}
				continue
			}
			state, err := net.MarshalOptState()
			if err != nil {
				t.Fatalf("MarshalOptState after a load: %v", err)
			}
			if !bytes.Equal(state, data) {
				t.Fatalf("re-marshaled state % x differs from the input % x", state, data)
			}
		}
	})
}
