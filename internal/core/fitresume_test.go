package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/ckpt"
)

// uninterruptedParams runs a full fit on a fresh runtime and returns the
// final serialized model.
func uninterruptedParams(t *testing.T, n, epochs, batch int) ([]byte, FitStats) {
	t.Helper()
	rt := slRuntime(t, n)
	st, err := rt.FitCtx(context.Background(), "sl", epochs, batch)
	if err != nil {
		t.Fatalf("uninterrupted fit: %v", err)
	}
	data, err := rt.SaveModel("sl")
	if err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	return data, st
}

// TestFitResumeBitIdentical is the durability contract test: a fit
// interrupted at an arbitrary checkpoint and resumed in a FRESH process
// (here: a fresh runtime) must land on bit-identical final parameters.
func TestFitResumeBitIdentical(t *testing.T) {
	const n, epochs, batch = 48, 3, 8 // 6 minibatches per epoch, 18 total
	want, wantSt := uninterruptedParams(t, n, epochs, batch)

	// Interrupt at every checkpoint boundary: after 1..17 total steps.
	for stop := 1; stop < epochs*6; stop++ {
		// First process: checkpoint every step, cancel after `stop`.
		rt1 := slRuntime(t, n)
		var last *ckpt.FitCheckpoint
		_, err := rt1.FitResumeCtx(newStepCtx(stop), "sl", epochs, batch, FitResumeOptions{
			CheckpointEvery: 1,
			OnCheckpoint:    func(c *ckpt.FitCheckpoint) error { last = c; return nil },
		})
		wantCanceled(t, err)
		if last == nil {
			t.Fatalf("stop=%d: no checkpoint taken", stop)
		}
		if last.Batches != stop {
			t.Fatalf("stop=%d: last checkpoint at step %d", stop, last.Batches)
		}

		// Second process: brand-new runtime, resume from the checkpoint.
		rt2 := slRuntime(t, n)
		st, err := rt2.FitResumeCtx(context.Background(), "sl", epochs, batch, FitResumeOptions{
			Resume: last,
		})
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stop, err)
		}
		if st.Epochs != wantSt.Epochs || st.Batches != wantSt.Batches {
			t.Errorf("stop=%d: resumed stats Epochs=%d Batches=%d, want %d/%d",
				stop, st.Epochs, st.Batches, wantSt.Epochs, wantSt.Batches)
		}
		if st.LastLoss != wantSt.LastLoss {
			t.Errorf("stop=%d: resumed LastLoss = %v, want %v", stop, st.LastLoss, wantSt.LastLoss)
		}
		got, err := rt2.SaveModel("sl")
		if err != nil {
			t.Fatalf("stop=%d: SaveModel: %v", stop, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stop=%d: resumed parameters differ from uninterrupted run", stop)
		}
	}
}

// TestFitResumeSurvivesEncodeDecode resumes from a checkpoint that went
// through the WAL wire format, as the durable queue does.
func TestFitResumeSurvivesEncodeDecode(t *testing.T) {
	const n, epochs, batch = 32, 2, 8
	want, _ := uninterruptedParams(t, n, epochs, batch)

	rt1 := slRuntime(t, n)
	var encoded []byte
	_, err := rt1.FitResumeCtx(newStepCtx(5), "sl", epochs, batch, FitResumeOptions{
		CheckpointEvery: 1,
		OnCheckpoint:    func(c *ckpt.FitCheckpoint) error { encoded = c.Encode(); return nil },
	})
	wantCanceled(t, err)

	decoded, err := ckpt.DecodeFitCheckpoint(encoded)
	if err != nil {
		t.Fatalf("DecodeFitCheckpoint: %v", err)
	}
	rt2 := slRuntime(t, n)
	if _, err := rt2.FitResumeCtx(context.Background(), "sl", epochs, batch, FitResumeOptions{Resume: decoded}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := rt2.SaveModel("sl")
	if err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resume via encoded checkpoint diverged from uninterrupted run")
	}
}

func TestFitResumeValidatesCheckpoint(t *testing.T) {
	rt := slRuntime(t, 16)
	var last *ckpt.FitCheckpoint
	_, err := rt.FitResumeCtx(newStepCtx(1), "sl", 2, 8, FitResumeOptions{
		CheckpointEvery: 1,
		OnCheckpoint:    func(c *ckpt.FitCheckpoint) error { last = c; return nil },
	})
	wantCanceled(t, err)

	t.Run("wrong model", func(t *testing.T) {
		bad := *last
		bad.Model = "other"
		rt2 := slRuntime(t, 16)
		if _, err := rt2.FitResumeCtx(context.Background(), "sl", 2, 8, FitResumeOptions{Resume: &bad}); !errors.Is(err, auerr.ErrSpecInvalid) {
			t.Errorf("wrong model accepted: %v", err)
		}
	})
	t.Run("wrong geometry", func(t *testing.T) {
		rt2 := slRuntime(t, 16)
		if _, err := rt2.FitResumeCtx(context.Background(), "sl", 5, 8, FitResumeOptions{Resume: last}); !errors.Is(err, auerr.ErrSpecInvalid) {
			t.Errorf("mismatched epochs accepted: %v", err)
		}
		if _, err := rt2.FitResumeCtx(context.Background(), "sl", 2, 4, FitResumeOptions{Resume: last}); !errors.Is(err, auerr.ErrSpecInvalid) {
			t.Errorf("mismatched batch size accepted: %v", err)
		}
	})
}

func TestFitResumeCheckpointCallbackErrorAborts(t *testing.T) {
	rt := slRuntime(t, 32)
	boom := errors.New("journal full")
	st, err := rt.FitResumeCtx(context.Background(), "sl", 2, 8, FitResumeOptions{
		CheckpointEvery: 2,
		OnCheckpoint:    func(*ckpt.FitCheckpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback error", err)
	}
	if st.Batches != 2 {
		t.Errorf("Batches = %d, want 2 (aborted at first checkpoint)", st.Batches)
	}
}

// TestFitResumeRejectedCheckpointLeavesModel resumes a model that has
// already trained from a checkpoint whose parameters are valid but
// whose optimizer state (or parameter image) is corrupt. The resume
// must fail with ErrCorruptModel before touching anything: the saved
// model and the optimizer state read back bit-identical to before.
func TestFitResumeRejectedCheckpointLeavesModel(t *testing.T) {
	const n, epochs, batch = 32, 2, 8
	rt := slRuntime(t, n)
	var first *ckpt.FitCheckpoint
	_, err := rt.FitResumeCtx(newStepCtx(3), "sl", epochs, batch, FitResumeOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(c *ckpt.FitCheckpoint) error {
			if first == nil {
				first = c
			}
			return nil
		},
	})
	wantCanceled(t, err)
	m, _ := rt.getModel("sl")
	snapshot := func() (params, opt []byte) {
		t.Helper()
		params, err := rt.SaveModel("sl")
		if err != nil {
			t.Fatalf("SaveModel: %v", err)
		}
		opt, err = m.net.MarshalOptState()
		if err != nil {
			t.Fatalf("MarshalOptState: %v", err)
		}
		return params, opt
	}
	wantParams, wantOpt := snapshot()

	truncOpt := *first
	truncOpt.OptState = first.OptState[:len(first.OptState)-8]
	truncParams := *first
	truncParams.Params = first.Params[:len(first.Params)-8]
	for name, bad := range map[string]*ckpt.FitCheckpoint{
		"optimizer state truncated by 8": &truncOpt,
		"params truncated by 8":          &truncParams,
	} {
		_, err := rt.FitResumeCtx(context.Background(), "sl", epochs, batch, FitResumeOptions{Resume: bad})
		if !errors.Is(err, auerr.ErrCorruptModel) {
			t.Fatalf("%s: error %v, want ErrCorruptModel", name, err)
		}
		gotParams, gotOpt := snapshot()
		if !bytes.Equal(gotParams, wantParams) {
			t.Errorf("%s: a rejected resume changed the parameters", name)
		}
		if !bytes.Equal(gotOpt, wantOpt) {
			t.Errorf("%s: a rejected resume changed the optimizer state", name)
		}
	}
}
