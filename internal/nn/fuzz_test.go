package nn

import (
	"bytes"
	"errors"
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
