package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/db"
)

// allocDuring reports the bytes the heap handed out while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersBoundAllocationByInput checks that a length prefix is only
// a claim: a header promising a huge payload that never arrives must
// fail without allocating for the promise.
func TestDecodersBoundAllocationByInput(t *testing.T) {
	const budget = 1 << 20

	// 13 bytes: magic, a one-byte model name, then a vector claiming the
	// 2^24-float cap and no data behind it.
	frame := []byte(binaryMagic)
	frame = binary.LittleEndian.AppendUint32(frame, 1)
	frame = append(frame, 'm')
	frame = binary.LittleEndian.AppendUint32(frame, maxVecLen)
	var err error
	if got := allocDuring(func() { _, _, err = DecodePredictFrame(bytes.NewReader(frame)) }); got >= budget {
		t.Errorf("13-byte predict frame allocated %d bytes, want < %d", got, budget)
	}
	if err == nil {
		t.Error("truncated predict frame decoded without error")
	}

	// 21 bytes: a store image whose one name claims 2^27 values — the
	// image format a client's store saves and the WAL replays.
	store := []byte("AUDB")
	for _, v := range []uint32{1, 1, 1} { // version, name count, name length
		store = binary.LittleEndian.AppendUint32(store, v)
	}
	store = append(store, 'x')
	store = binary.LittleEndian.AppendUint32(store, 1<<27)
	if got := allocDuring(func() { err = db.New().Load(bytes.NewReader(store)) }); got >= budget {
		t.Errorf("21-byte store image allocated %d bytes, want < %d", got, budget)
	}
	if !errors.Is(err, auerr.ErrCorruptStore) {
		t.Errorf("truncated store image: %v, want ErrCorruptStore", err)
	}

	// Snapshots claiming the 2^16-model cap, and one model whose weights
	// blob claims 1 GiB.
	header := func(count uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte(snapMagic), snapVersion)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	weights := header(1)
	for _, blob := range []string{"m", "{}"} {
		weights = binary.LittleEndian.AppendUint32(weights, uint32(len(blob)))
		weights = append(weights, blob...)
	}
	weights = binary.LittleEndian.AppendUint32(weights, 1<<30)
	for name, snap := range map[string][]byte{"model count": header(1 << 16), "weights length": weights} {
		if got := allocDuring(func() { _, err = ReadSnapshot(bytes.NewReader(snap)) }); got >= budget {
			t.Errorf("%s: %d-byte snapshot allocated %d bytes, want < %d", name, len(snap), got, budget)
		}
		if !errors.Is(err, auerr.ErrCorruptStore) {
			t.Errorf("%s: truncated snapshot: %v, want ErrCorruptStore", name, err)
		}
	}

	// Model images: an 8-byte size header and a 12-byte parameter blob
	// header with no tensors behind it, claiming a [64, 32] DNN with 2^17
	// inputs and a 1×16×16 CNN with 2^17 outputs; and a CNN image whose
	// header disagrees with its spec's InputShape (a sound blob, so only
	// the size check can reject it).
	image := func(in, out uint32, blob []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, in)
		return append(binary.LittleEndian.AppendUint32(b, out), blob...)
	}
	stub := binary.LittleEndian.AppendUint32([]byte("AUNN"), 1)
	stub = binary.LittleEndian.AppendUint32(stub, 0)
	dnn := core.ModelSpec{Algo: core.AdamOpt, Hidden: []int{64, 32}}
	cnn := core.ModelSpec{Type: core.CNN, Algo: core.AdamOpt, InputShape: []int{1, 16, 16}}
	srv := NewServer(Config{})
	defer srv.Close()
	tr := core.NewRuntimeWith(core.Train, core.WithMetrics(nil))
	cnn.Name = "c"
	if err := tr.ConfigCtx(context.Background(), cnn); err != nil {
		t.Fatal(err)
	}
	if err := tr.RecordExample("c", make([]float64, 16*16), make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	sound, err := tr.SaveModel("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec core.ModelSpec
		img  []byte
	}{
		{"dnn inputs", dnn, image(1<<17, 1, stub)},
		{"cnn outputs", cnn, image(16*16, 1<<17, stub)},
		{"cnn input size", cnn, image(16*16+1, 4, sound[8:])},
	} {
		if got := allocDuring(func() { _, err = srv.Install("m", c.spec, c.img) }); got >= budget {
			t.Errorf("%s: %d-byte model image allocated %d bytes, want < %d", c.name, len(c.img), got, budget)
		}
		if !errors.Is(err, auerr.ErrCorruptModel) {
			t.Errorf("%s: install: %v, want ErrCorruptModel", c.name, err)
		}
	}
}

// TestSnapshotReadsRetiredWorkersField checks that a snapshot written
// while the spec still carried a training-width "workers" field reads
// cleanly: unknown spec keys are ignored.
func TestSnapshotReadsRetiredWorkersField(t *testing.T) {
	img := []byte(snapMagic)
	img = binary.LittleEndian.AppendUint32(img, snapVersion)
	img = binary.LittleEndian.AppendUint32(img, 1)
	for _, blob := range []string{"m", `{"algo":1,"hidden":[4],"workers":2}`, "\x01\x02"} {
		img = binary.LittleEndian.AppendUint32(img, uint32(len(blob)))
		img = append(img, blob...)
	}
	models, err := ReadSnapshot(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Spec.Algo != core.AdamOpt || len(models[0].Spec.Hidden) != 1 {
		t.Fatalf("read %+v", models)
	}
}

// FuzzDecodePredictFrame feeds arbitrary bytes to the binary Predict
// decoder, starting from the corpus in testdata/fuzz. It must never
// panic, and a frame it accepts must re-encode, bit for bit, to the
// prefix of the input it consumed.
func FuzzDecodePredictFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		model, in, err := DecodePredictFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if frame := encodePredictFrame(model, in); !bytes.HasPrefix(data, frame) {
			t.Fatalf("re-encoded frame % x is not a prefix of the input % x", frame, data)
		}
	})
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader,
// starting from the corpus in testdata/fuzz. It must never panic, every
// failure must classify as auerr.ErrCorruptStore, and an accepted image
// must survive encode∘decode: the canonical encoding of what was read
// decodes and re-encodes to itself byte for byte.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		models, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, auerr.ErrCorruptStore) {
				t.Fatalf("ReadSnapshot error %v does not wrap ErrCorruptStore", err)
			}
			return
		}
		var canon bytes.Buffer
		if err := WriteSnapshot(&canon, models); err != nil {
			t.Fatalf("WriteSnapshot of a read snapshot: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical image does not read back: %v", err)
		}
		var canon2 bytes.Buffer
		if err := WriteSnapshot(&canon2, again); err != nil {
			t.Fatalf("WriteSnapshot of the re-read snapshot: %v", err)
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("encode∘decode changed a canonical image:\n% x\n% x", canon.Bytes(), canon2.Bytes())
		}
	})
}
