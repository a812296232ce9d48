// Package core implements the Autonomizer runtime: the seven primitives
// of the paper (au_config, au_extract, au_NN, au_write_back,
// au_serialize, au_checkpoint, au_restore) together with the two-store
// execution model of Fig. 8. A host program links against this package
// (directly or through the public autonomizer facade), adds a few
// primitive calls at the annotated program points, and gains a trained
// neural controller transparently.
//
// The runtime keeps the paper's separation of concerns:
//
//   - the Program Store σ is the host program's own variables — the
//     runtime never reaches into them except through au_write_back;
//   - the Database Store π (internal/db) receives extracted feature
//     values and model outputs;
//   - the model store θ is the registry of named networks built by
//     au_config; it survives checkpoint/restore untouched.
package core

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Mode is the execution mode ω of the semantics: TR (training) or TS
// (testing / production). The paper compiles two executables; here the
// mode is selected when the Runtime is created.
type Mode int

const (
	// Train is TR: au_NN trains the model in addition to predicting.
	Train Mode = iota
	// Test is TS: au_NN only predicts, using a previously trained model.
	Test
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Train:
		return "TR"
	case Test:
		return "TS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModelType is the model family δ: fully connected (DNN) or
// convolutional (CNN).
type ModelType int

const (
	// DNN selects a fully connected network.
	DNN ModelType = iota
	// CNN selects the convolutional raw-input network.
	CNN
)

// String implements fmt.Stringer.
func (t ModelType) String() string {
	switch t {
	case DNN:
		return "DNN"
	case CNN:
		return "CNN"
	default:
		return fmt.Sprintf("ModelType(%d)", int(t))
	}
}

// Algorithm is the learning algorithm α: Q-learning for reinforcement
// learning or Adam-optimized supervised regression.
type Algorithm int

const (
	// QLearn selects deep Q-learning (interactive programs).
	QLearn Algorithm = iota
	// AdamOpt selects Adam-optimized supervised learning (parameterized
	// programs).
	AdamOpt
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case QLearn:
		return "QLearn"
	case AdamOpt:
		return "AdamOpt"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ModelSpec describes one named model, the argument list of au_config:
// au_config(modelName, modelType, algo, layers, n1, ...). Input and
// output sizes are computed from the data that flows through the model,
// exactly as in the paper ("the size of the input and output layers is
// automatically computed"), so they are not part of the spec.
type ModelSpec struct {
	// Name identifies the model in θ.
	Name string
	// Type selects DNN or CNN.
	Type ModelType
	// Algo selects QLearn or AdamOpt.
	Algo Algorithm
	// Hidden lists the hidden-layer widths, e.g. {256, 64} for Mario.
	Hidden []int
	// Actions is the discrete action count for QLearn models (the "5"
	// in au_write_back("output", 5, actionKey)).
	Actions int
	// InputShape is required for CNN models: the (channels, height,
	// width) of the raw input. DNN models infer a flat input size.
	InputShape []int
	// LR overrides the learning rate (0 selects per-algorithm defaults:
	// 1e-3 for both QLearn and AdamOpt).
	LR float64
	// OutputActivation, when "sigmoid", squashes SL outputs into (0,1);
	// useful when targets are normalized parameters. Empty means linear.
	OutputActivation string
	// Gamma, EpsilonDecaySteps, ReplayCapacity, BatchSize and
	// TargetSyncEvery tune QLearn models; zero values select the rl
	// package defaults.
	Gamma             float64
	EpsilonDecaySteps int
	ReplayCapacity    int
	BatchSize         int
	TargetSyncEvery   int
	// LearnEvery trains once per this many observed transitions
	// (default 1); harnesses raise it to trade update frequency for
	// wall-clock speed.
	LearnEvery int
	// DoubleDQN enables double Q-learning for QLearn models.
	DoubleDQN bool
	// Builder, when set, constructs the network instead of the built-in
	// DNN/CNN families — the analog of the paper's callback "in which
	// the users can create arbitrary neural networks from scratch with
	// Tensorflow". It receives the inferred input and output sizes and
	// a private RNG for initialization.
	Builder func(inSize, outSize int, rng *stats.RNG) *nn.Network
}

// validate reports configuration errors early, at au_config time. Every
// failure wraps auerr.ErrSpecInvalid in one uniform shape —
//
//	core: model "<name>": <Field>: <problem>
//
// naming both the model and the offending field, so Config and
// ConfigCtx (and any other path that validates a spec) surface
// identical, grep-able messages. The annotation is the user-facing
// surface of the system, so a bad spec must fail with a field-level
// message rather than a kernel invariant deep inside the first au_NN
// call.
func (s ModelSpec) validate() error {
	bad := func(field, format string, args ...any) error {
		return auerr.E(auerr.ErrSpecInvalid, "core: model %q: %s: %s", s.Name, field, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return bad("Name", "must be non-empty")
	}
	if s.Type != DNN && s.Type != CNN {
		return bad("Type", "unknown model type %v", s.Type)
	}
	if s.Algo != QLearn && s.Algo != AdamOpt {
		return bad("Algo", "unknown algorithm %v", s.Algo)
	}
	for i, h := range s.Hidden {
		if h <= 0 {
			return bad(fmt.Sprintf("Hidden[%d]", i), "width %d, widths must be positive", h)
		}
	}
	if s.Type == CNN {
		if len(s.InputShape) != 3 {
			return bad("InputShape", "must be (C,H,W) for CNN models, got %v", s.InputShape)
		}
		for i, d := range s.InputShape {
			if d <= 0 {
				return bad(fmt.Sprintf("InputShape[%d]", i), "dim %d, dims must be positive", d)
			}
		}
		if s.Builder == nil {
			// The built-in DeepMind-style CNN halves the plane three
			// times; inputs too small collapse to an empty feature map.
			if h, w := nn.DeepMindFeatureMap(s.InputShape[1], s.InputShape[2]); h < 1 || w < 1 {
				return bad("InputShape", "%v too small for the built-in CNN (needs ≥1×1 after three conv/pool stages; set Builder for a custom net)", s.InputShape)
			}
		}
	}
	if s.Algo == QLearn && s.Actions <= 0 {
		return bad("Actions", "%d, QLearn models need a positive action count", s.Actions)
	}
	if s.Actions < 0 {
		return bad("Actions", "%d, cannot be negative", s.Actions)
	}
	if s.OutputActivation != "" && s.OutputActivation != "sigmoid" {
		return bad("OutputActivation", "unknown activation %q (only \"sigmoid\" or empty)", s.OutputActivation)
	}
	if s.LR < 0 {
		return bad("LR", "%g, learning rate cannot be negative", s.LR)
	}
	if s.Gamma < 0 || s.Gamma > 1 {
		return bad("Gamma", "%g, discount must be in [0,1]", s.Gamma)
	}
	if s.EpsilonDecaySteps < 0 {
		return bad("EpsilonDecaySteps", "%d, cannot be negative", s.EpsilonDecaySteps)
	}
	if s.ReplayCapacity < 0 {
		return bad("ReplayCapacity", "%d, cannot be negative", s.ReplayCapacity)
	}
	if s.BatchSize < 0 {
		return bad("BatchSize", "%d, cannot be negative", s.BatchSize)
	}
	if s.TargetSyncEvery < 0 {
		return bad("TargetSyncEvery", "%d, cannot be negative", s.TargetSyncEvery)
	}
	if s.LearnEvery < 0 {
		return bad("LearnEvery", "%d, cannot be negative", s.LearnEvery)
	}
	return nil
}
