package core

import (
	"context"
	"fmt"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/ckpt"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// FitResumeOptions controls checkpointed offline training. The zero
// value trains from scratch without checkpointing — plain FitCtx.
type FitResumeOptions struct {
	// Resume, when non-nil, restarts training from a checkpoint taken by
	// an earlier (interrupted) fit of the same model with the same
	// epochs/batchSize. The resumed run's final parameters are
	// bit-identical to an uninterrupted run: the checkpoint carries the
	// network parameters, the optimizer moments, and the RNG state from
	// the start of the in-progress epoch, so the resumed loop re-draws
	// the identical shuffle and skips the batches already applied.
	Resume *ckpt.FitCheckpoint
	// CheckpointEvery takes a checkpoint every N completed optimizer
	// steps (counted across the whole logical run, so resumed runs keep
	// the original cadence). 0 disables checkpointing.
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint; it typically journals the
	// encoded form into a durable queue. A returned error aborts the fit
	// (the training state stays consistent at the boundary).
	OnCheckpoint func(*ckpt.FitCheckpoint) error
}

// FitResumeCtx is FitCtx with minibatch-boundary checkpointing and crash
// resume. See FitResumeOptions for the resume contract.
func (rt *Runtime) FitResumeCtx(ctx context.Context, mdName string, epochs, batchSize int, opt FitResumeOptions) (st FitStats, err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pFit)
	defer rt.tel.end(pFit, tm, sp, &err)
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return FitStats{}, auerr.E(auerr.ErrUnknownModel, "core: Fit of unconfigured model %q", mdName)
	}
	st, err = m.fitResumeCtx(ctx, epochs, batchSize, rt.tel, opt)
	rt.log.Debug("fit", "model", mdName, "epochs", st.Epochs, "batches", st.Batches,
		"loss", st.LastLoss, "steps_per_sec", st.StepsPerSec, "resumed", opt.Resume != nil, "err", err)
	return st, err
}

// fitResumeCtx is the full offline-training loop: fitCtx plus the
// checkpoint/resume machinery. The minibatch is the atomic unit —
// cancellation, checkpoints and resume points all sit at batch
// boundaries, so the parameter trajectory of interrupted+resumed
// training is exactly that of an uninterrupted run.
func (m *model) fitResumeCtx(ctx context.Context, epochs, batchSize int, tel *telemetry, opt FitResumeOptions) (st FitStats, err error) {
	begun := time.Now()
	defer func() {
		st.Duration = time.Since(begun)
		if secs := st.Duration.Seconds(); secs > 0 && st.Batches > 0 {
			st.StepsPerSec = float64(st.Batches) / secs
		}
	}()
	if m.spec.Algo != AdamOpt {
		return st, auerr.E(auerr.ErrModeViolation, "core: Fit only applies to AdamOpt models, %q is %v", m.spec.Name, m.spec.Algo)
	}
	if len(m.slInputs) == 0 {
		return st, auerr.E(auerr.ErrMissingInput, "core: model %q has no recorded examples", m.spec.Name)
	}
	if m.net == nil {
		if err := m.materialize(len(m.slInputs[0]), len(m.slTargets[0])); err != nil {
			return st, err
		}
	}
	if batchSize <= 0 {
		batchSize = 16
	}

	startEpoch, startBatch, resumeLoss := 0, 0, 0.0
	if ck := opt.Resume; ck != nil {
		if ck.Model != m.spec.Name {
			return st, auerr.E(auerr.ErrSpecInvalid, "core: checkpoint is for model %q, not %q", ck.Model, m.spec.Name)
		}
		if ck.Epochs != epochs || ck.BatchSize != batchSize {
			return st, auerr.E(auerr.ErrSpecInvalid,
				"core: checkpoint was taken at epochs=%d batch=%d, resume requested epochs=%d batch=%d",
				ck.Epochs, ck.BatchSize, epochs, batchSize)
		}
		// Parameters and optimizer state are checked together before
		// either is written, so a rejected checkpoint leaves the model
		// exactly as it was.
		if err := m.net.UnmarshalTrainingState(ck.Params, ck.OptState); err != nil {
			return st, fmt.Errorf("core: restoring checkpoint for %q: %w", m.spec.Name, err)
		}
		m.bumpWeights()
		m.rng.SetState(ck.RNGState)
		startEpoch, startBatch, resumeLoss = ck.Epoch, ck.Batch, ck.LossSum
		st.Epochs, st.Batches = ck.Epoch, ck.Batches
	}

	toTensor := func(v []float64, shape []int) *tensor.Tensor {
		if len(shape) == 3 {
			return tensor.FromSlice(v, shape...)
		}
		return tensor.FromSlice(v, len(v))
	}
	for e := startEpoch; e < epochs; e++ {
		// Captured before the shuffle draw: a checkpoint taken anywhere in
		// this epoch restores to here and re-draws the same permutation.
		rngState := m.rng.State()
		perm := m.rng.Perm(len(m.slInputs))
		total, batches := 0.0, 0
		skip := 0
		if e == startEpoch && opt.Resume != nil {
			skip, total, batches = startBatch, resumeLoss, startBatch
		}
		for bi, start := 0, 0; start < len(perm); bi, start = bi+1, start+batchSize {
			if bi < skip {
				continue
			}
			if err := live(ctx); err != nil {
				if batches > 0 {
					st.LastLoss = total / float64(batches)
					tel.fitLoss(m.spec.Name, st.LastLoss)
				}
				return st, err
			}
			end := start + batchSize
			if end > len(perm) {
				end = len(perm)
			}
			var ins, outs []*tensor.Tensor
			for _, idx := range perm[start:end] {
				var shape []int
				if m.spec.Type == CNN {
					shape = m.spec.InputShape
				}
				ins = append(ins, toTensor(m.slInputs[idx], shape))
				outs = append(outs, toTensor(m.slTargets[idx], nil))
			}
			var stepTm obs.Timer
			if tel != nil {
				stepTm = tel.fitStep.Timer()
			}
			total += m.net.TrainBatch(ins, outs)
			m.bumpWeights()
			stepTm.Stop()
			batches++
			st.Batches++
			if opt.CheckpointEvery > 0 && opt.OnCheckpoint != nil && st.Batches%opt.CheckpointEvery == 0 {
				ck, err := m.buildCheckpoint(epochs, batchSize, e, batches, st.Batches, total, rngState)
				if err != nil {
					return st, err
				}
				if err := opt.OnCheckpoint(ck); err != nil {
					return st, fmt.Errorf("core: checkpoint callback: %w", err)
				}
			}
		}
		st.LastLoss = total / float64(batches)
		st.Epochs++
		if tel != nil {
			tel.fitEpochs.Inc()
			tel.fitLoss(m.spec.Name, st.LastLoss)
		}
	}
	return st, nil
}

// buildCheckpoint snapshots the training state at a minibatch boundary.
func (m *model) buildCheckpoint(epochs, batchSize, epoch, batch, batches int, lossSum float64, rngState uint64) (*ckpt.FitCheckpoint, error) {
	params, err := m.net.MarshalParams()
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing params for %q: %w", m.spec.Name, err)
	}
	optState, err := m.net.MarshalOptState()
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing optimizer state for %q: %w", m.spec.Name, err)
	}
	return &ckpt.FitCheckpoint{
		Model:     m.spec.Name,
		Epochs:    epochs,
		BatchSize: batchSize,
		Epoch:     epoch,
		Batch:     batch,
		Batches:   batches,
		LossSum:   lossSum,
		RNGState:  rngState,
		Params:    params,
		OptState:  optState,
	}, nil
}
