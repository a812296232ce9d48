package imaging

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// readPGMMeasured runs ReadPGM over data twice and returns the second
// result with the smaller of the two measured allocations: the fuzzing
// engine allocates on other goroutines, so the smaller load is the
// decoder's own cost.
func readPGMMeasured(data []byte) (*Image, error, uint64) {
	var img *Image
	var err error
	alloc := uint64(math.MaxUint64)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err = ReadPGM(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if a := after.TotalAlloc - before.TotalAlloc; a < alloc {
			alloc = a
		}
	}
	return img, err, alloc
}

// pgmAllocBudget is what decoding n input bytes may allocate: the
// float64 image plus the byte buffer the pixels are read into, and a
// fixed allowance for the header.
func pgmAllocBudget(n int) uint64 { return uint64(16*n + 8192) }

// FuzzReadPGM feeds arbitrary bytes to ReadPGM, seeded with WritePGM
// output and the rejected streams of TestReadPGMRejectsGarbage. It must
// never panic, must allocate no more than the input supplies, and an
// accepted image must survive WritePGM then ReadPGM unchanged.
func FuzzReadPGM(f *testing.F) {
	for _, size := range [][2]int{{1, 1}, {3, 2}, {16, 16}} {
		img := NewImage(size[0], size[1])
		for i := range img.Pix {
			img.Pix[i] = float64(i * 37 % 256)
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, img); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, bad := range pgmGarbage {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err, alloc := readPGMMeasured(data)
		if budget := pgmAllocBudget(len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", len(data), alloc, budget)
		}
		if err != nil {
			return
		}
		if len(img.Pix) != img.W*img.H {
			t.Fatalf("accepted %dx%d image with %d pixels", img.W, img.H, len(img.Pix))
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, img); err != nil {
			t.Fatalf("WritePGM of an accepted image: %v", err)
		}
		again, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("ReadPGM of WritePGM output: %v", err)
		}
		if again.W != img.W || again.H != img.H {
			t.Fatalf("round trip changed size %dx%d to %dx%d", img.W, img.H, again.W, again.H)
		}
		for i, v := range img.Pix {
			if again.Pix[i] != v {
				t.Fatalf("round trip changed pixel %d from %v to %v", i, v, again.Pix[i])
			}
		}
	})
}
