// Package autonomizer is the public API of Autonomizer, a programming
// framework that retrofits traditional software with neural-network
// control, reproducing "Programming Support for Autonomizing Software"
// (Lee, Liu, Liu, Ma, Zhang — PLDI 2019).
//
// # Overview
//
// Autonomizer targets two classes of programs:
//
//   - Parameterized programs (data processing, scientific computation)
//     whose output quality depends on input-specific parameter choices.
//     Supervised learning predicts good parameters per input.
//   - Interactive programs (games, driving, control loops) that act in
//     an environment. Reinforcement learning (deep Q-learning) selects
//     actions.
//
// A host program is "autonomized" by adding a few primitive calls:
//
//	rt := autonomizer.New(autonomizer.Train, 42)
//	rt.Config(autonomizer.ModelSpec{
//		Name: "Mario", Algo: autonomizer.QLearn,
//		Hidden: []int{256, 64}, Actions: 5,
//	})
//	...
//	rt.Checkpoint(game, stateBytes)          // au_checkpoint
//	for {
//		rt.Extract("PX", px)                 // au_extract
//		rt.Extract("PY", py)
//		key := rt.Serialize("PX", "PY")      // au_serialize
//		rt.NNRL("Mario", key, reward, term, "output") // au_NN
//		action, _ := rt.WriteBackAction("output")     // au_write_back
//		act(action)
//		if term {
//			rt.Restore(game)                 // au_restore
//		}
//	}
//
// The seven primitives and their exact semantics follow Fig. 8 of the
// paper; internal/semantics carries a literal executable transcription
// of the rules, and internal/core implements the production runtime
// this package re-exports.
//
// # Feature extraction
//
// The FeaturesSL and FeaturesRL functions expose the paper's two
// automatic feature-variable extraction algorithms over a dynamic
// dependence graph (built with NewDepGraph and the instrumented
// subjects' Def/Use events).
package autonomizer

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/dep"
	"github.com/autonomizer/autonomizer/internal/extract"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/trace"
)

// Mode is the execution mode ω: Train (TR) or Test (TS).
type Mode = core.Mode

// Execution modes.
const (
	// Train builds and trains models (the TR executable).
	Train = core.Train
	// Test loads trained models and only predicts (the TS executable).
	Test = core.Test
)

// ModelType selects the model family δ.
type ModelType = core.ModelType

// Model families.
const (
	// DNN is a fully connected network over extracted feature variables.
	DNN = core.DNN
	// CNN is the convolutional network for raw screen inputs.
	CNN = core.CNN
)

// Algorithm selects the learning algorithm α.
type Algorithm = core.Algorithm

// Learning algorithms.
const (
	// QLearn is deep Q-learning, for interactive programs.
	QLearn = core.QLearn
	// AdamOpt is Adam-optimized supervised learning, for parameterized
	// programs.
	AdamOpt = core.AdamOpt
)

// ModelSpec describes one named model (the au_config argument list).
type ModelSpec = core.ModelSpec

// Runtime is one autonomized execution: the primitives au_config,
// au_extract, au_serialize, au_NN, au_write_back, au_checkpoint and
// au_restore are its methods (Config, Extract, Serialize, NN/NNRL,
// WriteBack, Checkpoint, Restore). Every primitive also has a
// context-aware ...Ctx form (ConfigCtx, ExtractCtx, SerializeCtx,
// NNCtx, NNRLCtx, WriteBackCtx, WriteBackActionCtx, CheckpointCtx,
// RestoreCtx, FitCtx, PredictCtx) that observes cancellation and
// deadlines and returns the typed errors below; the plain forms are
// thin wrappers over them with context.Background().
type Runtime = core.Runtime

// AgentStats surfaces Q-learning statistics (exploration rate, replay
// occupancy, trace bytes).
type AgentStats = core.AgentStats

// FitStats reports offline-training progress from Runtime.FitCtx,
// including the partial progress of a canceled run: completed epochs,
// completed minibatch steps and the latest epoch's mean loss.
type FitStats = core.FitStats

// Structured runtime errors. Every failure a Runtime method returns
// wraps one of these sentinels, so hosts dispatch with errors.Is
// instead of string matching:
//
//	if errors.Is(err, autonomizer.ErrCanceled) { flushPartial() }
//
// Cancellation errors additionally wrap the context's own error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) also hold.
var (
	// ErrSpecInvalid marks a malformed ModelSpec (or annotation shape),
	// rejected at Config time with a field-level message.
	ErrSpecInvalid = auerr.ErrSpecInvalid
	// ErrUnknownModel marks a primitive invoked on an unconfigured (or,
	// in Test mode, never-saved) model name.
	ErrUnknownModel = auerr.ErrUnknownModel
	// ErrModeViolation marks a primitive applied to the wrong model kind
	// (NN on a QLearn model, Fit on a non-AdamOpt model).
	ErrModeViolation = auerr.ErrModeViolation
	// ErrNotMaterialized marks an operation needing a built network on a
	// model whose input/output sizes are not yet known.
	ErrNotMaterialized = auerr.ErrNotMaterialized
	// ErrMissingInput marks a primitive reading an absent or empty π
	// binding (au_NN without au_extract, write-back of an unbound name).
	ErrMissingInput = auerr.ErrMissingInput
	// ErrCorruptModel marks undecodable serialized model bytes.
	ErrCorruptModel = auerr.ErrCorruptModel
	// ErrCorruptStore marks an undecodable database-store image.
	ErrCorruptStore = auerr.ErrCorruptStore
	// ErrCanceled marks work stopped by context cancellation/deadline.
	ErrCanceled = auerr.ErrCanceled
	// ErrInvariant marks a recovered internal invariant violation — a
	// runtime bug (or panicking user Builder), surfaced as an error
	// instead of a crash.
	ErrInvariant = auerr.ErrInvariant
)

// Option configures an embedded Runtime at construction time (see
// WithSeed, WithLogger, WithMetrics). Options replace direct struct
// pokes on Runtime internals: everything a host used to reach in and
// set is now declared up front in NewRuntime, so a constructed runtime
// is never observed half-configured.
type Option = core.Option

// WithSeed fixes the runtime's deterministic RNG seed (default 0).
func WithSeed(seed uint64) Option { return core.WithSeed(seed) }

// WithLogger routes the runtime's diagnostics through l instead of the
// process-wide Logger.
func WithLogger(l *slog.Logger) Option { return core.WithLogger(l) }

// WithMetrics attaches the runtime's instruments to reg instead of the
// process-wide registry; WithMetrics(nil) detaches this runtime from
// telemetry entirely, even when EnableTelemetry was called.
func WithMetrics(reg *TelemetryRegistry) Option { return core.WithMetrics(reg) }

// WithDriftConfig tunes an embedded Runtime's drift monitor (fed by
// Observe/ObserveCtx) — the counterpart of auserve's -drift-threshold
// and -drift-window flags. The default is monitor-only.
func WithDriftConfig(cfg DriftConfig) Option { return core.WithDriftConfig(cfg) }

// NewRuntime creates an embedded runtime in the given mode:
//
//	rt := autonomizer.NewRuntime(autonomizer.Train,
//		autonomizer.WithSeed(42),
//		autonomizer.WithLogger(l),
//		autonomizer.WithMetrics(reg))
//
// Omitted options take the defaults (seed 0, process-wide logger and
// registry).
func NewRuntime(mode Mode, opts ...Option) *Runtime {
	return core.NewRuntimeWith(mode, opts...)
}

// New creates a runtime in the given mode with a deterministic seed.
// It is shorthand for NewRuntime(mode, WithSeed(seed)).
func New(mode Mode, seed uint64) *Runtime {
	return core.NewRuntime(mode, seed)
}

// DepGraph is the dynamic program dependence graph consumed by the
// feature-extraction algorithms. Instrumented programs report Def
// (dst computed from srcs) and Use (variable used in function) events.
type DepGraph = dep.Graph

// NewDepGraph returns an empty dependence graph.
func NewDepGraph() *DepGraph { return dep.NewGraph() }

// TraceRecorder accumulates runtime value traces of candidate feature
// variables for the RL extraction's pruning.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// RankedFeature is a feature variable with its dependence distance.
type RankedFeature = extract.RankedFeature

// FeaturesSL runs the paper's Algorithm 1: supervised-learning feature
// extraction. inputs is the program-input variable set, targets the
// annotated target variables. Each target maps to features ranked by
// dependence distance (nearest — most abstract — first).
func FeaturesSL(g *DepGraph, inputs, targets []string) map[string][]RankedFeature {
	return extract.SL(g, inputs, targets)
}

// RLExtraction reports what Algorithm 2 selected and pruned.
type RLExtraction = extract.RLReport

// FeaturesRL runs the paper's Algorithm 2: reinforcement-learning
// feature extraction with redundancy pruning (epsilon1 over scaled
// trace distance) and unchanging-variable pruning (epsilon2 over trace
// variance).
func FeaturesRL(g *DepGraph, rec *TraceRecorder, targets, progVars []string, epsilon1, epsilon2 float64) RLExtraction {
	return extract.RL(g, rec, targets, progVars, extract.RLConfig{
		Epsilon1: epsilon1, Epsilon2: epsilon2,
	})
}

// Pick selects a feature by distance band for the Raw/Med/Min
// comparison of the paper's evaluation.
type Pick = extract.Pick

// Feature distance bands.
const (
	// Min selects the nearest (most abstract) feature.
	Min = extract.Min
	// Med selects the median-distance feature.
	Med = extract.Med
	// Raw selects the farthest feature (raw program input).
	Raw = extract.Raw
)

// SelectFeature picks one ranked feature at the requested band.
func SelectFeature(feats []RankedFeature, p Pick) (RankedFeature, bool) {
	return extract.Select(feats, p)
}

// TelemetryRegistry is the process-wide metrics registry (see
// internal/obs). Telemetry is disabled by default — every instrument
// site in the runtime short-circuits on a nil registry — and is turned
// on explicitly with EnableTelemetry before constructing Runtimes.
type TelemetryRegistry = obs.Registry

// EnableTelemetry switches the process-wide metrics registry on (idempotent)
// and returns it. Call it before New so runtime instruments resolve.
func EnableTelemetry() *TelemetryRegistry { return obs.Enable() }

// Telemetry returns the process-wide registry, or nil while disabled.
func Telemetry() *TelemetryRegistry { return obs.Default() }

// TelemetryHandler returns the HTTP handler serving /metrics
// (Prometheus text format), /debug/vars (Go's expvar memstats and
// cmdline), /debug/pprof and /debug/spans, for hosts that mount
// telemetry on their own server.
func TelemetryHandler() http.Handler { return obs.Handler() }

// ServeTelemetry serves TelemetryHandler on addr until ctx is canceled.
func ServeTelemetry(ctx context.Context, addr string) error { return obs.Serve(ctx, addr) }

// Logger returns the process-wide structured logger the runtime logs
// through (log/slog; text on stderr by default).
func Logger() *slog.Logger { return obs.Logger() }

// SetLogFormat switches diagnostic logging to "text" or "json" on w.
func SetLogFormat(format string, w io.Writer) error { return obs.ConfigureLog(format, w) }

// SetTracing toggles per-primitive span recording (exported on
// /debug/spans and as the autonomizer_span_duration_seconds histogram).
func SetTracing(on bool) { obs.SetTracing(on) }
