package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"log/slog"
	"sort"
	"sync"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/ckpt"
	"github.com/autonomizer/autonomizer/internal/db"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Runtime is one autonomized execution: the database store π, the model
// store θ, the checkpoint manager and the execution mode ω. A host
// program creates one Runtime and calls the primitive methods at its
// annotated program points.
//
// Error and cancellation contract: every primitive has a context-aware
// ...Ctx form returning typed errors from internal/auerr (ErrSpecInvalid,
// ErrUnknownModel, ErrModeViolation, ErrMissingInput, ErrCorruptModel,
// ErrCanceled, ErrInvariant — all matchable with errors.Is). Cancellation
// is checked at primitive entry and, inside training loops, at minibatch
// boundaries; a canceled call returns an error wrapping both
// auerr.ErrCanceled and the context's cause (so errors.Is(err,
// context.Canceled) holds) and leaves the registry and stores in a
// consistent, resumable state. Internal invariant violations in the
// kernels are recovered at these entry points and returned as errors
// wrapping auerr.ErrInvariant — the runtime never takes down its host.
// The original non-context methods remain as thin wrappers over the Ctx
// forms with context.Background().
//
// Concurrency contract (the sharding rule for parallel rollouts):
//
//   - The model registry (θ and the saved-weights store) is mutex-guarded,
//     so Config, SaveModel, LoadModel and the lookups they race with are
//     safe from any goroutine.
//   - Training primitives (NN, NNRL, Fit, RecordExample, LoadModelParams)
//     mutate per-model learning state and must be confined to a single
//     training goroutine per model, mirroring the paper's single main
//     process that transfers control at au_NN points.
//   - Inference runs the model's compiled plan and is concurrent: Predict
//     serializes through one per-model plan instance, and Predictor
//     hands out lock-free private instances (shared packed weights,
//     private scratch) for parallel rollouts — valid while no training
//     step is concurrently mutating the weights.
//   - The database store π and the checkpoint manager keep the original
//     single-goroutine contract.
type Runtime struct {
	mode   Mode
	store  *db.Store
	mu     sync.RWMutex // guards models, saved and rng
	models map[string]*model
	rng    *stats.RNG
	ckpts  *ckpt.Manager

	// tel carries this runtime's metric instruments (nil while
	// telemetry is disabled — the zero-cost default; see Instrument).
	// log is the per-runtime structured logger carrying the mode.
	tel *telemetry
	log *slog.Logger

	// drift is this runtime's model-faithfulness monitor, fed by
	// Observe/ObserveCtx — the embedded twin of the serving layer's
	// drift pathway (see internal/core/observe.go).
	drift *obs.DriftMonitor

	// saved is the model registry standing in for on-disk model files:
	// Test-mode au_config loads weights from here by name (the
	// CONFIG-TEST rule's loadModel).
	saved map[string][]byte

	extractedValues int // total scalars extracted, for Table 2 trace sizes
	nnCalls         int
}

// NewRuntime creates a runtime in the given mode. The seed makes every
// stochastic choice (weight init, exploration) reproducible. When
// process-wide telemetry is on (obs.Enable / the -telemetry flag), the
// runtime is instrumented automatically; otherwise every metric site
// short-circuits on a nil instrument.
func NewRuntime(mode Mode, seed uint64) *Runtime {
	return NewRuntimeWith(mode, WithSeed(seed))
}

// Mode reports the execution mode ω.
func (rt *Runtime) Mode() Mode { return rt.mode }

// DB exposes the database store π (read access for harnesses/tests; the
// program itself should only touch π through the primitives).
func (rt *Runtime) DB() *db.Store { return rt.store }

// Checkpoints exposes the checkpoint manager, mainly for cost-model
// configuration and Table 2 statistics.
func (rt *Runtime) Checkpoints() *ckpt.Manager { return rt.ckpts }

// guard is the runtime's panic-recovery boundary: deferred at every
// exported entry point that reaches the nn/rl/tensor kernels, it
// converts internal invariant panics (and panicking user Builder
// callbacks) into returned errors wrapping auerr.ErrInvariant.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = auerr.FromPanic(r)
	}
}

// live reports nil for a usable context and the typed cancellation
// error otherwise; nil contexts are treated as context.Background().
func live(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return auerr.Canceled(ctx)
	}
	return nil
}

// getModel looks a model up in θ under the registry lock.
func (rt *Runtime) getModel(name string) (*model, bool) {
	rt.mu.RLock()
	m, ok := rt.models[name]
	rt.mu.RUnlock()
	return m, ok
}

// ConfigCtx is the context-aware au_config: in Train mode it registers a
// fresh model under spec.Name unless one already exists (CONFIG-TRAIN);
// in Test mode it loads previously saved weights for the name
// (CONFIG-TEST). A malformed spec returns an error wrapping
// auerr.ErrSpecInvalid with the offending field; a Test-mode name with
// no saved weights wraps auerr.ErrUnknownModel; undecodable saved bytes
// wrap auerr.ErrCorruptModel. It is safe to call from concurrent
// goroutines configuring different models.
func (rt *Runtime) ConfigCtx(ctx context.Context, spec ModelSpec) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pConfig)
	defer rt.tel.end(pConfig, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return err
	}
	if err := spec.validate(); err != nil {
		return err
	}
	rt.log.Debug("au_config", "model", spec.Name, "type", spec.Type.String(), "algo", spec.Algo.String())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, exists := rt.models[spec.Name]; exists {
		// θ(mdName) ≢ ⊥ ⇒ θ' = θ: reconfiguring an existing model is a
		// no-op in both rules.
		return nil
	}
	m := newModel(spec, rt.rng.Split())
	if rt.mode == Test {
		data, ok := rt.saved[spec.Name]
		if !ok {
			return auerr.E(auerr.ErrUnknownModel, "core: no saved model %q to load in TS mode", spec.Name)
		}
		inSize, outSize, params, err := decodeImage(spec, data)
		if err != nil {
			return err
		}
		if err := m.materialize(inSize, outSize); err != nil {
			return err
		}
		if err := m.loadParams(params); err != nil {
			return err
		}
		// Pack at install: the weights are frozen from here on, so compile
		// the plan now. A network the compiler rejects fails here, and the
		// first prediction pays no packing.
		if _, _, err := m.compiledPlan(); err != nil {
			return err
		}
	}
	rt.models[spec.Name] = m
	return nil
}

// ExtractCtx is the context-aware au_extract: it appends the given
// values to π under name (EXTRACT rule). The paper's size argument is
// implicit in len(vals). A canceled context leaves π untouched.
func (rt *Runtime) ExtractCtx(ctx context.Context, name string, vals ...float64) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pExtract)
	defer rt.tel.end(pExtract, tm, sp, &err)
	if err := live(ctx); err != nil {
		return err
	}
	rt.store.Append(name, vals...)
	rt.extractedValues += len(vals)
	return nil
}

// SerializeCtx is the context-aware au_serialize: it concatenates the
// named lists in π into a single list bound to the concatenated name,
// returning that name (SERIALIZE rule). Models only take vector inputs,
// so multi-variable features are combined through this primitive.
//
// The runtime consumes the constituent lists, so that a game loop that
// extracts and serializes every iteration feeds the model one fresh
// state vector per au_NN call. (The formal rule in Fig. 8 leaves the
// constituents bound; internal/semantics transcribes that literally,
// while this production runtime adopts the consuming behaviour the
// paper's loop structure requires.)
func (rt *Runtime) SerializeCtx(ctx context.Context, names ...string) (_ string, err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pSerialize)
	defer rt.tel.end(pSerialize, tm, sp, &err)
	if err := live(ctx); err != nil {
		return "", err
	}
	key := rt.store.Concat(names...)
	for _, n := range names {
		rt.store.Reset(n)
	}
	return key, nil
}

// NNCtx is the context-aware au_NN for supervised models: it runs model
// mdName on the input list π(extName), binds the prediction to the
// write-back names, and resets the input list (TRAIN/TEST rules). With
// multiple write-back names the output vector is split evenly across
// them, matching the Canny usage au_NN("MinNN", "HIST", "LO", "HI").
//
// In Train mode, if π already binds every write-back name (the
// desirable outputs recorded from the oracle — the "decisions made by
// human users" of Section 3), one gradient step is taken against that
// target (the literal TRAIN rule) and the example is also recorded for
// offline fitting via Fit. Train mode predicts with the training
// network's forward; Test mode runs the compiled plan.
//
// Cancellation is checked once at entry — before any store mutation or
// gradient step — so a canceled call leaves π and the model exactly as
// they were.
func (rt *Runtime) NNCtx(ctx context.Context, mdName, extName string, wbNames ...string) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pNN)
	defer rt.tel.end(pNN, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return err
	}
	m, ok := rt.getModel(mdName)
	if !ok {
		return auerr.E(auerr.ErrUnknownModel, "core: au_NN on unconfigured model %q", mdName)
	}
	if m.spec.Algo != AdamOpt {
		return auerr.E(auerr.ErrModeViolation, "core: model %q is %v; use NNRL for reinforcement learning", mdName, m.spec.Algo)
	}
	if len(wbNames) == 0 {
		return auerr.E(auerr.ErrSpecInvalid, "core: au_NN needs at least one write-back name")
	}
	in, ok := rt.store.Get(extName)
	if !ok || len(in) == 0 {
		return auerr.E(auerr.ErrMissingInput, "core: au_NN input %q is empty; call au_extract first", extName)
	}
	rt.nnCalls++

	// Gather oracle targets if present (Train mode only).
	var target []float64
	haveTarget := rt.mode == Train
	if haveTarget {
		for _, wb := range wbNames {
			tv, ok := rt.store.Get(wb)
			if !ok || len(tv) == 0 {
				haveTarget = false
				break
			}
			target = append(target, tv...)
		}
	}

	if m.net == nil {
		if !haveTarget {
			return auerr.E(auerr.ErrNotMaterialized, "core: model %q has no materialized network and no targets to infer output size from", mdName)
		}
		if err := m.materialize(len(in), len(target)); err != nil {
			return err
		}
	}

	if haveTarget {
		if len(target) != m.outSize {
			return auerr.E(auerr.ErrSpecInvalid, "core: model %q targets have %d values, output size is %d",
				mdName, len(target), m.outSize)
		}
		m.slTrainStep(in, target)
		m.recordExample(in, target)
	}

	var out []float64
	if rt.mode == Train {
		out = m.predict(in)
	} else if out, err = m.infer(nil, in); err != nil {
		return err
	}
	if len(out)%len(wbNames) != 0 {
		return auerr.E(auerr.ErrSpecInvalid, "core: model %q output size %d not divisible across %d write-back names",
			mdName, len(out), len(wbNames))
	}
	chunk := len(out) / len(wbNames)
	for i, wb := range wbNames {
		rt.store.Put(wb, out[i*chunk:(i+1)*chunk])
	}
	rt.store.Reset(extName)
	return nil
}

// NNRLCtx is the context-aware au_NN for reinforcement-learning models,
// matching the Mario annotation au_NN("Mario", au_serialize(...),
// reward, term, "output"). The state is read from π(extName); the
// (reward, terminal) pair closes the previous step's transition; the
// chosen action index is bound to π(wbName); the input list is reset.
//
// In Train mode the action is ε-greedy and the underlying DQN performs
// replayed Q-learning updates, so acting runs the training network's
// forward; in Test mode the action is the argmax of the compiled plan's
// Q-values and the model is untouched (TEST rule).
//
// Cancellation is checked at the step boundary — at entry, before the
// transition is observed or π is mutated — so a canceled call can be
// retried or the episode abandoned with the stores consistent.
func (rt *Runtime) NNRLCtx(ctx context.Context, mdName, extName string, reward float64, terminal bool, wbName string) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pNNRL)
	defer rt.tel.end(pNNRL, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return err
	}
	m, ok := rt.getModel(mdName)
	if !ok {
		return auerr.E(auerr.ErrUnknownModel, "core: au_NN on unconfigured model %q", mdName)
	}
	if m.spec.Algo != QLearn {
		return auerr.E(auerr.ErrModeViolation, "core: model %q is %v; use NN for supervised learning", mdName, m.spec.Algo)
	}
	state, ok := rt.store.Get(extName)
	if !ok || len(state) == 0 {
		return auerr.E(auerr.ErrMissingInput, "core: au_NN input %q is empty; call au_extract first", extName)
	}
	rt.nnCalls++
	if m.net == nil {
		if err := m.materialize(len(state), m.spec.Actions); err != nil {
			return err
		}
	}
	if rt.mode == Train && m.havePrev {
		if _, err := m.agent.ObserveCtx(ctx, rlTransition(m.prevState, m.prevAction, reward, state, terminal)); err != nil {
			return err
		}
		m.bumpWeights()
	}
	if terminal {
		// The episode ended: do not bridge a transition across restore.
		m.havePrev = false
	}
	var action int
	if rt.mode == Train {
		action = m.agent.Act(state)
	} else {
		if m.qvals, err = m.infer(m.qvals, state); err != nil {
			return err
		}
		action = stats.ArgMax(m.qvals)
	}
	if !terminal {
		m.prevState = state
		m.prevAction = action
		m.havePrev = true
	}
	rt.store.Put(wbName, []float64{float64(action)})
	rt.store.Reset(extName)
	return nil
}

// WriteBackCtx is the context-aware au_write_back: it copies up to
// len(dst) values from π(name) into the program variable dst
// (WRITE-BACK rule), returning the number copied. A missing binding
// wraps auerr.ErrMissingInput: write-back without a preceding au_NN
// indicates a mis-annotated program.
func (rt *Runtime) WriteBackCtx(ctx context.Context, name string, dst []float64) (_ int, err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pWriteBack)
	defer rt.tel.end(pWriteBack, tm, sp, &err)
	if err := live(ctx); err != nil {
		return 0, err
	}
	vals, ok := rt.store.Get(name)
	if !ok {
		return 0, auerr.E(auerr.ErrMissingInput, "core: au_write_back of unbound name %q", name)
	}
	n := copy(dst, vals)
	return n, nil
}

// WriteBackActionCtx is the discrete-action convenience over
// WriteBackCtx: it returns π(name)[0] rounded to an int, for annotations
// like au_write_back("output", 5, actionKey).
func (rt *Runtime) WriteBackActionCtx(ctx context.Context, name string) (int, error) {
	var v [1]float64
	n, err := rt.WriteBackCtx(ctx, name, v[:])
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, auerr.E(auerr.ErrMissingInput, "core: au_write_back of empty binding %q", name)
	}
	return int(v[0] + 0.5), nil
}

// CheckpointCtx is the context-aware au_checkpoint: it snapshots
// ⟨σ, π⟩ — the host's program state (via its Snapshotter) and the
// database store — leaving model state θ out, per the CHECKPOINT rule.
// progBytes is the host's accounting of its state footprint for Table 2.
func (rt *Runtime) CheckpointCtx(ctx context.Context, prog ckpt.Snapshotter, progBytes int) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pCheckpoint)
	defer rt.tel.end(pCheckpoint, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return err
	}
	rt.ckpts.Checkpoint(prog, rt.store, progBytes)
	return nil
}

// RestoreCtx is the context-aware au_restore: it rolls ⟨σ, π⟩ back to
// the latest checkpoint (RESTORE rule). Model state θ is preserved so
// learning accumulates across rollbacks.
func (rt *Runtime) RestoreCtx(ctx context.Context, prog ckpt.Snapshotter) (err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pRestore)
	defer rt.tel.end(pRestore, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return err
	}
	if err := rt.ckpts.Restore(prog, rt.store); err != nil {
		return err
	}
	// A restore ends the current trajectory: no transition may bridge
	// the rollback.
	rt.mu.RLock()
	for _, m := range rt.models {
		m.havePrev = false
	}
	rt.mu.RUnlock()
	return nil
}

// FitCtx trains a supervised model offline on every example recorded
// during Train-mode au_NN calls, for the given number of epochs.
// Cancellation is checked before every minibatch: a canceled context
// stops training at that boundary and returns the partial-progress
// FitStats alongside an error wrapping auerr.ErrCanceled — completed
// optimizer steps are kept (the model remains consistent and training
// can resume with another FitCtx call), never discarded.
func (rt *Runtime) FitCtx(ctx context.Context, mdName string, epochs, batchSize int) (st FitStats, err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pFit)
	defer rt.tel.end(pFit, tm, sp, &err)
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return FitStats{}, auerr.E(auerr.ErrUnknownModel, "core: Fit of unconfigured model %q", mdName)
	}
	st, err = m.fitCtx(ctx, epochs, batchSize, rt.tel)
	rt.log.Debug("fit", "model", mdName, "epochs", st.Epochs, "batches", st.Batches,
		"loss", st.LastLoss, "steps_per_sec", st.StepsPerSec, "dur", st.Duration, "err", err)
	return st, err
}

// RecordExample adds a labeled training example directly (host-driven
// dataset construction, used when the oracle labels are computed outside
// the annotated control flow).
func (rt *Runtime) RecordExample(mdName string, in, target []float64) (err error) {
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return auerr.E(auerr.ErrUnknownModel, "core: RecordExample on unconfigured model %q", mdName)
	}
	// materialize validates sizes against an already-built network.
	if err := m.materialize(len(in), len(target)); err != nil {
		return err
	}
	m.recordExample(in, target)
	return nil
}

// ExampleCount reports the recorded SL dataset size for a model.
func (rt *Runtime) ExampleCount(mdName string) int {
	if m, ok := rt.getModel(mdName); ok {
		return len(m.slInputs)
	}
	return 0
}

// SaveModel serializes a model's weights (with its inferred sizes) into
// the runtime's registry and returns the bytes, emulating the on-disk
// model that a TS-mode execution loads.
func (rt *Runtime) SaveModel(mdName string) (data []byte, err error) {
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return nil, auerr.E(auerr.ErrUnknownModel, "core: SaveModel of unconfigured model %q", mdName)
	}
	if m.net == nil {
		return nil, auerr.E(auerr.ErrNotMaterialized, "core: model %q was never materialized", mdName)
	}
	params, err := m.net.MarshalParams()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, uint32(m.inSize)); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(m.outSize)); err != nil {
		return nil, err
	}
	buf.Write(params)
	data = buf.Bytes()
	rt.mu.Lock()
	rt.saved[mdName] = data
	rt.mu.Unlock()
	return data, nil
}

// LoadModel installs serialized weights into the registry so that a
// Test-mode Config(spec) can load them (the loadModel statement).
func (rt *Runtime) LoadModel(mdName string, data []byte) {
	rt.mu.Lock()
	rt.saved[mdName] = append([]byte(nil), data...)
	rt.mu.Unlock()
}

// LoadModelParams restores previously saved weights into an
// already-materialized model in place. Training harnesses use it to
// keep the best-scoring snapshot (the counterpart of the paper's
// stop-at-best-evaluation protocol). Undecodable bytes wrap
// auerr.ErrCorruptModel.
func (rt *Runtime) LoadModelParams(mdName string, data []byte) (err error) {
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return auerr.E(auerr.ErrUnknownModel, "core: LoadModelParams on unconfigured model %q", mdName)
	}
	if m.net == nil {
		return auerr.E(auerr.ErrNotMaterialized, "core: model %q not materialized", mdName)
	}
	_, _, params, err := decodeImage(m.spec, data)
	if err != nil {
		return err
	}
	return m.loadParams(params)
}

// ModelSizeBytes reports the serialized size of a model's parameters
// (Table 2 "Model Size").
func (rt *Runtime) ModelSizeBytes(mdName string) (int, error) {
	m, ok := rt.getModel(mdName)
	if !ok {
		return 0, auerr.E(auerr.ErrUnknownModel, "core: unknown model %q", mdName)
	}
	if m.net == nil {
		return 0, auerr.E(auerr.ErrNotMaterialized, "core: model %q not materialized", mdName)
	}
	return m.net.SizeBytes(), nil
}

// ModelParamCount reports the scalar parameter count of a model.
func (rt *Runtime) ModelParamCount(mdName string) (int, error) {
	m, ok := rt.getModel(mdName)
	if !ok {
		return 0, auerr.E(auerr.ErrUnknownModel, "core: unknown model %q", mdName)
	}
	if m.net == nil {
		return 0, auerr.E(auerr.ErrNotMaterialized, "core: model %q not materialized", mdName)
	}
	return m.net.ParamCount(), nil
}

// TraceValueCount reports the total number of scalars extracted so far
// (8 bytes each gives the Table 2 "Trace Size").
func (rt *Runtime) TraceValueCount() int { return rt.extractedValues }

// NNCallCount reports how many au_NN invocations have executed.
func (rt *Runtime) NNCallCount() int { return rt.nnCalls }

// ModelNames lists configured models in sorted order.
func (rt *Runtime) ModelNames() []string {
	rt.mu.RLock()
	out := make([]string, 0, len(rt.models))
	for name := range rt.models {
		out = append(out, name)
	}
	rt.mu.RUnlock()
	sort.Strings(out)
	return out
}

// PredictCtx runs a model's compiled plan directly on a feature vector
// without touching π — the fast path used by benchmark harnesses when
// measuring pure inference cost. Calls on one model are serialized. A
// wrong-sized input, or a network the plan compiler rejects, wraps
// auerr.ErrSpecInvalid instead of tripping a kernel invariant.
func (rt *Runtime) PredictCtx(ctx context.Context, mdName string, in []float64) (out []float64, err error) {
	ctx, tm, sp := rt.tel.begin(ctx, pPredict)
	defer rt.tel.end(pPredict, tm, sp, &err)
	defer guard(&err)
	if err := live(ctx); err != nil {
		return nil, err
	}
	m, ok := rt.getModel(mdName)
	if !ok {
		return nil, auerr.E(auerr.ErrUnknownModel, "core: unknown model %q", mdName)
	}
	if m.net == nil {
		return nil, auerr.E(auerr.ErrNotMaterialized, "core: model %q not materialized", mdName)
	}
	if len(in) != m.inSize {
		return nil, auerr.E(auerr.ErrSpecInvalid, "core: model %q expects %d inputs, got %d", mdName, m.inSize, len(in))
	}
	return m.infer(nil, in)
}

// Predictor returns a standalone inference function for the model,
// backed by a private instance of its compiled plan (shared packed
// weights, private scratch). Distinct Predictor closures may run
// concurrently with each other and with Predict, as long as no training
// step is mutating the model's weights — the fan-out primitive for
// parallel rollouts. A network the plan compiler rejects wraps
// auerr.ErrSpecInvalid.
func (rt *Runtime) Predictor(mdName string) (fn func(in []float64) []float64, err error) {
	defer guard(&err)
	m, ok := rt.getModel(mdName)
	if !ok {
		return nil, auerr.E(auerr.ErrUnknownModel, "core: unknown model %q", mdName)
	}
	if m.net == nil {
		return nil, auerr.E(auerr.ErrNotMaterialized, "core: model %q not materialized", mdName)
	}
	return m.predictor()
}
