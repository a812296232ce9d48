package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/rl"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// model is one entry of the model store θ: a lazily materialized network
// (sizes are only known once the first input arrives) plus per-algorithm
// training state.
type model struct {
	spec ModelSpec

	net     *nn.Network // online network (nil until first input)
	agent   *rl.Agent   // QLearn only
	rng     *stats.RNG
	inSize  int
	outSize int

	// SL training state: the dataset accumulated during training runs
	// (model inputs paired with desirable outputs recorded from the
	// oracle), trained offline per the paper ("in supervised learning,
	// model training is conducted offline after execution").
	slInputs  [][]float64
	slTargets [][]float64

	// RL stepping state: the previous (state, action) pair awaiting its
	// reward, completed on the next au_NN call.
	prevState  []float64
	prevAction int
	havePrev   bool

	// predMu serializes the model's two shared inference paths: the
	// training network's forward in Train-mode au_NN (its layers cache
	// forward-pass state) and the shared plan runner that PredictCtx and
	// Test-mode au_NN use. Parallel rollouts avoid this lock entirely by
	// taking private plan runners via predictor().
	predMu sync.Mutex
	shared planRunner
	// qvals is Test-mode au_NN's Q-value buffer, reused every frame.
	qvals []float64

	// weightsVersion counts weight publications: it is bumped after every
	// mutation of the network's parameters (materialize, online train
	// steps, offline fit batches, RL observes, weight restores). Compiled
	// plans snapshot the weights, so plan runners compare their plan's
	// version against this counter on every call and recompile on
	// mismatch (DESIGN.md §5g).
	weightsVersion atomic.Uint64

	// Compiled-plan cache: one shared immutable plan per weights version,
	// compiled lazily on first use and replaced when the version moves.
	planMu      sync.Mutex
	plan        *nn.Plan
	planVersion uint64
}

// bumpWeights records a weight publication, invalidating compiled plans.
func (m *model) bumpWeights() { m.weightsVersion.Add(1) }

// compiledPlan returns the plan for the current weights and the version
// it was compiled at, recompiling if training has published new weights
// since the cached compile. A network the plan compiler rejects returns
// an error wrapping auerr.ErrSpecInvalid.
func (m *model) compiledPlan() (*nn.Plan, uint64, error) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	ver := m.weightsVersion.Load()
	if m.plan == nil || m.planVersion != ver {
		shape := []int{m.inSize}
		if m.spec.Type == CNN {
			shape = m.spec.InputShape
		}
		p, err := nn.Compile(m.net, shape...)
		if err != nil {
			return nil, 0, auerr.E(auerr.ErrSpecInvalid, "core: model %q cannot be compiled: %v", m.spec.Name, err)
		}
		m.plan, m.planVersion = p, ver
	}
	return m.plan, m.planVersion, nil
}

// planRunner is one private instance of the model's compiled plan plus
// the weights version it was compiled at. It is not goroutine-safe: each
// predictor closure owns one, and the model's shared one sits behind
// predMu.
type planRunner struct {
	inst *nn.PlanInstance
	ver  uint64
}

// refresh brings r up to the current weights: one atomic load when
// nothing was published, a fresh instance of the recompiled plan when
// something was.
func (r *planRunner) refresh(m *model) error {
	if r.inst != nil && m.weightsVersion.Load() == r.ver {
		return nil
	}
	p, ver, err := m.compiledPlan()
	if err != nil {
		return err
	}
	r.inst, r.ver = p.NewInstance(), ver
	return nil
}

// infer runs the shared plan runner on in, writing into dst as
// nn.PlanInstance.PredictInto does — the inference path of PredictCtx and
// Test-mode au_NN.
func (m *model) infer(dst, in []float64) ([]float64, error) {
	m.predMu.Lock()
	defer m.predMu.Unlock()
	if err := m.shared.refresh(m); err != nil {
		return nil, err
	}
	return m.shared.inst.PredictInto(dst, in), nil
}

func newModel(spec ModelSpec, rng *stats.RNG) *model {
	return &model{spec: spec, rng: rng}
}

// materialize builds the network once input/output sizes are known.
func (m *model) materialize(inSize, outSize int) error {
	if m.net != nil {
		if inSize != m.inSize {
			return auerr.E(auerr.ErrSpecInvalid, "core: model %q input size changed from %d to %d",
				m.spec.Name, m.inSize, inSize)
		}
		if outSize != m.outSize {
			return auerr.E(auerr.ErrSpecInvalid, "core: model %q output size changed from %d to %d",
				m.spec.Name, m.outSize, outSize)
		}
		return nil
	}
	m.inSize, m.outSize = inSize, outSize
	m.net = m.build(inSize, outSize)

	switch m.spec.Algo {
	case QLearn:
		cfg := rl.Config{
			Gamma:             m.spec.Gamma,
			EpsilonDecaySteps: m.spec.EpsilonDecaySteps,
			ReplayCapacity:    m.spec.ReplayCapacity,
			BatchSize:         m.spec.BatchSize,
			TargetSyncEvery:   m.spec.TargetSyncEvery,
			LearnEvery:        m.spec.LearnEvery,
			DoubleDQN:         m.spec.DoubleDQN,
			LR:                m.spec.LR,
		}
		if m.spec.Type == CNN {
			cfg.StateShape = m.spec.InputShape
		}
		// Discard the draw a second (target) network once took, so every
		// seed keeps its stream; the agent's target is a compiled plan.
		m.rng.Split()
		m.agent = rl.NewAgent(m.net, m.spec.Actions, cfg, m.rng.Split())
	case AdamOpt:
		lr := m.spec.LR
		if lr == 0 {
			lr = 1e-3
		}
		m.net.UseAdam(lr)
	}
	m.bumpWeights()
	return nil
}

// loadParams installs a SaveModel image's parameter blob into the
// materialized network and publishes it.
func (m *model) loadParams(params []byte) error {
	if err := m.net.UnmarshalParams(params); err != nil {
		return fmt.Errorf("core: loading saved weights for %q: %w", m.spec.Name, err)
	}
	m.bumpWeights()
	return nil
}

// build constructs the model's network: the spec's Builder, the DeepMind
// CNN, or a DNN with the spec's hidden layers.
func (m *model) build(inSize, outSize int) *nn.Network {
	if m.spec.Builder != nil {
		return m.spec.Builder(inSize, outSize, m.rng.Split())
	}
	if m.spec.Type == CNN {
		s := m.spec.InputShape
		return nn.NewDeepMindCNN(s[0], s[1], s[2], outSize, m.rng.Split())
	}
	net := nn.NewDNN(inSize, m.spec.Hidden, outSize, m.rng.Split())
	if m.spec.OutputActivation == "sigmoid" {
		net = nn.NewNetwork(append(net.Layers(), nn.NewSigmoid())...)
	}
	return net
}

// predict runs the training network's forward on a flat input vector —
// Train-mode au_NN only, where the call itself changes the weights and a
// recompile per call would cost more than the forward. The network's
// layers cache forward state, so callers are serialized.
func (m *model) predict(in []float64) []float64 {
	m.predMu.Lock()
	defer m.predMu.Unlock()
	if m.spec.Type == CNN {
		return m.net.Predict(in, m.spec.InputShape...)
	}
	return m.net.Predict(in)
}

// predictor returns an inference function backed by a private plan
// runner (shared packed weights, private scratch), safe to call
// concurrently with other predictors while no training step is mutating
// the weights. Each call checks the weights version with one atomic load
// and recompiles when training has published new weights.
func (m *model) predictor() (func(in []float64) []float64, error) {
	var r planRunner
	if err := r.refresh(m); err != nil {
		return nil, err
	}
	return func(in []float64) []float64 {
		if err := r.refresh(m); err != nil {
			// The architecture is fixed after materialize and compiled
			// once already, so only a broken invariant gets here.
			auerr.Failf("%v", err)
		}
		return r.inst.Predict(in)
	}, nil
}

// slTrainStep performs one online gradient step (the literal TRAIN rule)
// using target as the desirable output.
func (m *model) slTrainStep(in, target []float64) float64 {
	var it *tensor.Tensor
	if m.spec.Type == CNN {
		it = tensor.FromSlice(append([]float64(nil), in...), m.spec.InputShape...)
	} else {
		it = tensor.FromSlice(append([]float64(nil), in...), len(in))
	}
	tt := tensor.FromSlice(append([]float64(nil), target...), len(target))
	loss := m.net.TrainStep(it, tt)
	m.bumpWeights()
	return loss
}

// recordExample appends a labeled example for offline training.
func (m *model) recordExample(in, target []float64) {
	m.slInputs = append(m.slInputs, append([]float64(nil), in...))
	m.slTargets = append(m.slTargets, append([]float64(nil), target...))
}

// FitStats reports offline-training progress. FitCtx fills it even when
// a canceled context stops training early, so callers can see exactly
// how far the run got and resume from there.
type FitStats struct {
	// Epochs is the number of fully completed epochs.
	Epochs int
	// Batches is the total number of completed minibatch optimizer
	// steps, across all epochs including a final partial one.
	Batches int
	// LastLoss is the mean loss over the most recent epoch — the final
	// full epoch, or the partial epoch in progress when training was
	// canceled (0 if no batch completed).
	LastLoss float64
	// Duration is the wall-clock time the fit ran, filled on every
	// return path so canceled and completed fits report comparable
	// throughput.
	Duration time.Duration
	// StepsPerSec is Batches/Duration — minibatch optimizer steps per
	// second of wall clock (0 if the fit finished too fast to time).
	StepsPerSec float64
}

// fitCtx trains the SL model over the recorded dataset with
// mini-batches. The minibatch is the atomic unit of training:
// cancellation is checked before every optimizer step, and a canceled
// context returns the partial-progress FitStats alongside an error
// wrapping auerr.ErrCanceled. Completed steps are kept — the model,
// its dataset and its optimizer state stay consistent, so a later
// fitCtx call resumes training.
//
// tel, when non-nil, receives per-step latency observations, per-epoch
// loss, and the epoch counter; a nil tel costs one branch per batch.
// The full loop, including the checkpoint/resume machinery this wraps,
// lives in fitResumeCtx.
func (m *model) fitCtx(ctx context.Context, epochs, batchSize int, tel *telemetry) (FitStats, error) {
	return m.fitResumeCtx(ctx, epochs, batchSize, tel, FitResumeOptions{})
}
