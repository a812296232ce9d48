package rl

import (
	"context"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Config holds the DQN hyperparameters. Zero values select the defaults
// listed on each field.
type Config struct {
	// Gamma is the discount factor (default 0.97).
	Gamma float64
	// EpsilonStart/EpsilonEnd bound the ε-greedy exploration schedule
	// (defaults 1.0 → 0.05).
	EpsilonStart, EpsilonEnd float64
	// EpsilonDecaySteps is how many Observe calls it takes for ε to
	// anneal from start to end (default 5000).
	EpsilonDecaySteps int
	// BatchSize is the replay mini-batch (default 32).
	BatchSize int
	// ReplayCapacity bounds the experience buffer (default 10000).
	ReplayCapacity int
	// TargetSyncEvery is the target-plan refresh interval in training
	// steps (default 250).
	TargetSyncEvery int
	// LearnEvery trains once per this many Observe calls (default 1).
	LearnEvery int
	// WarmupSteps delays training until the buffer has this many
	// transitions (default max(BatchSize, 100)).
	WarmupSteps int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// StateShape, when set, reshapes flat state vectors before the
	// forward pass (needed for CNN models over (C,H,W) screens).
	StateShape []int
	// DoubleDQN selects van Hasselt-style double Q-learning: the online
	// network chooses the bootstrap action and the target plan
	// evaluates it, reducing the max-operator's overestimation bias.
	DoubleDQN bool
}

func (c *Config) fillDefaults() {
	if c.Gamma == 0 {
		c.Gamma = 0.97
	}
	if c.EpsilonStart == 0 {
		c.EpsilonStart = 1.0
	}
	if c.EpsilonEnd == 0 {
		c.EpsilonEnd = 0.05
	}
	if c.EpsilonDecaySteps == 0 {
		c.EpsilonDecaySteps = 5000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 10000
	}
	if c.TargetSyncEvery == 0 {
		c.TargetSyncEvery = 250
	}
	if c.LearnEvery == 0 {
		c.LearnEvery = 1
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = c.BatchSize
		if c.WarmupSteps < 100 {
			c.WarmupSteps = 100
		}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
}

// Agent is a deep Q-learning agent: an online network selects actions,
// a compiled plan of periodically snapshotted online weights supplies
// bootstrap values, and experience replay decorrelates updates. It
// implements the paper's "Q" training algorithm invoked by au_NN in TR
// mode.
type Agent struct {
	cfg     Config
	online  *nn.Network
	buffer  *ReplayBuffer
	rng     *stats.RNG
	actions int
	steps   int
	trained int

	// target is the compiled snapshot of the online weights that scores
	// bootstraps (DESIGN.md §5g: frozen weights run the plan). It is
	// compiled at the first replayed update, so an agent constructed for
	// TS (production) mode compiles nothing and binds no optimizer, and
	// again after every TargetSyncEvery-th update.
	target *nn.PlanInstance

	// Replay-update scratch reused across Observe calls: the sampled
	// minibatch and the slots it was drawn from, and the state views and
	// (action, y) targets handed to online.TrainBatch. stateView is
	// the recycled header for single-state forwards (Act, DoubleDQN's
	// bootstrap action), so those allocate nothing.
	batch     []Transition
	slots     []int
	ins       []*tensor.Tensor
	targets   []*tensor.Tensor
	stateView *tensor.Tensor

	// Target-value cache (DESIGN.md §5g). The target plan is fixed
	// between syncs, so Q_target(s') of a replayed transition is the
	// same every time it is drawn in one sync window. targetQ holds one
	// Q-vector per replay slot (qWidth values each) and targetGen[slot]
	// is the window it was computed in: a row is valid while it equals
	// gen. syncTarget bumps gen; recording a transition clears its
	// slot's stamp. Both are allocated at the first replayed update,
	// sized to the buffer's capacity.
	targetQ   []float64
	targetGen []uint64
	gen       uint64
	qWidth    int

	// Telemetry instruments, resolved at construction (nil while
	// telemetry is disabled; every use is a nil-checked no-op).
	obsSteps *obs.Counter
	obsLoss  *obs.Gauge
	obsEps   *obs.Gauge
}

// NewAgent wraps online into a DQN agent with `actions` discrete
// outputs, training it with the TD Huber loss.
func NewAgent(online *nn.Network, actions int, cfg Config, rng *stats.RNG) *Agent {
	if actions <= 0 {
		auerr.Failf("rl: agent needs a positive action count, got %d", actions)
	}
	cfg.fillDefaults()
	online.SetLoss(nn.TDHuber{})
	targets := make([]*tensor.Tensor, cfg.BatchSize)
	for i := range targets {
		targets[i] = tensor.New(2)
	}
	reg := obs.Default()
	return &Agent{
		cfg:     cfg,
		online:  online,
		buffer:  NewReplayBuffer(cfg.ReplayCapacity, rng.Split()),
		rng:     rng,
		actions: actions,
		batch:   make([]Transition, cfg.BatchSize),
		slots:   make([]int, cfg.BatchSize),
		ins:     make([]*tensor.Tensor, cfg.BatchSize),
		targets: targets,
		obsSteps: reg.Counter("autonomizer_rl_train_steps_total",
			"Replayed Q-learning updates applied across all agents.", nil),
		obsLoss: reg.Gauge("autonomizer_rl_last_loss",
			"Mean TD loss of the most recent replay minibatch.", nil),
		obsEps: reg.Gauge("autonomizer_rl_epsilon",
			"Current epsilon-greedy exploration rate.", nil),
	}
}

// Online exposes the online network (e.g. for serialization/size
// accounting in Table 2).
func (a *Agent) Online() *nn.Network { return a.online }

// Buffer exposes the replay buffer (for trace-size accounting).
func (a *Agent) Buffer() *ReplayBuffer { return a.buffer }

// Epsilon reports the current exploration rate.
func (a *Agent) Epsilon() float64 {
	frac := float64(a.steps) / float64(a.cfg.EpsilonDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return a.cfg.EpsilonStart + (a.cfg.EpsilonEnd-a.cfg.EpsilonStart)*frac
}

// Steps reports how many transitions the agent has observed.
func (a *Agent) Steps() int { return a.steps }

// stateShape is the network input shape for a state of length n.
func (a *Agent) stateShape(n int) []int {
	if len(a.cfg.StateShape) > 0 {
		return a.cfg.StateShape
	}
	return []int{n}
}

// forward runs the online network on state through the recycled
// stateView header.
func (a *Agent) forward(state []float64) []float64 {
	a.stateView = tensor.ViewOf(a.stateView, state, a.stateShape(len(state))...)
	return a.online.Forward(a.stateView).Data()
}

// Act selects an action ε-greedily from the online network (TR mode;
// deployed TS-mode inference is the compiled plan's argmax in core).
func (a *Agent) Act(state []float64) int {
	if a.rng.Float64() < a.Epsilon() {
		return a.rng.Intn(a.actions)
	}
	return stats.ArgMax(a.forward(state))
}

// ObserveCtx is the context-aware Observe. Cancellation is checked at
// the minibatch boundary — once before the transition is recorded and
// the replay update starts — because a replay minibatch is the atomic
// unit of DQN training. A canceled context returns an error wrapping
// auerr.ErrCanceled with the agent's networks, replay buffer and step
// counters untouched, so training can resume from exactly this state.
// A network the plan compiler rejects fails the first replayed update
// with an error wrapping auerr.ErrSpecInvalid.
func (a *Agent) ObserveCtx(ctx context.Context, t Transition) (float64, error) {
	if ctx != nil && ctx.Err() != nil {
		return 0, auerr.Canceled(ctx)
	}
	return a.observe(t)
}

// Observe records a transition and, past warmup, performs a replayed
// Q-learning update: one online.TrainBatch of the TD Huber loss toward
// y = r (terminal) or r + γ·Q_target(s', a*), where a* is the argmax of
// Q_target(s', ·), or under DoubleDQN of the online Q(s', ·). A
// transition drawn again before the next target sync reuses its cached
// Q_target(s', ·). The first update binds Adam, compiles the target
// plan and allocates the cache. It returns the training loss, or 0 when
// no update ran, and panics where ObserveCtx returns an error.
func (a *Agent) Observe(t Transition) float64 {
	loss, err := a.observe(t)
	if err != nil {
		panic(err)
	}
	return loss
}

func (a *Agent) observe(t Transition) (float64, error) {
	slot := a.buffer.Add(t)
	if a.targetGen != nil {
		a.targetGen[slot] = 0
	}
	a.steps++
	if a.buffer.Len() < a.cfg.WarmupSteps || a.steps%a.cfg.LearnEvery != 0 {
		return 0, nil
	}
	if a.trained == 0 {
		a.online.UseAdam(a.cfg.LR)
		if err := a.syncTarget(len(t.State)); err != nil {
			return 0, err
		}
		a.qWidth = a.target.Plan().OutSize()
		a.targetQ = make([]float64, a.buffer.Cap()*a.qWidth)
		a.targetGen = make([]uint64, a.buffer.Cap())
	}
	a.buffer.Sample(a.batch, a.slots)
	for i, tr := range a.batch {
		y := tr.Reward
		if !tr.Terminal {
			q := a.targetValues(a.slots[i], tr.NextState)
			pick := q
			if a.cfg.DoubleDQN {
				pick = a.forward(tr.NextState)
			}
			y += a.cfg.Gamma * q[stats.ArgMax(pick)]
		}
		a.ins[i] = tensor.ViewOf(a.ins[i], tr.State, a.stateShape(len(tr.State))...)
		td := a.targets[i].Data()
		td[0], td[1] = float64(tr.Action), y
	}
	loss := a.online.TrainBatch(a.ins, a.targets)
	a.trained++
	a.obsSteps.Inc()
	a.obsLoss.Set(loss)
	a.obsEps.Set(a.Epsilon())
	if a.trained%a.cfg.TargetSyncEvery == 0 {
		return loss, a.syncTarget(len(t.State))
	}
	return loss, nil
}

// targetValues returns Q_target(next, ·) for the transition in slot: the
// cached row when the current plan computed it, else a fresh prediction
// stored there.
func (a *Agent) targetValues(slot int, next []float64) []float64 {
	q := a.targetQ[slot*a.qWidth : (slot+1)*a.qWidth]
	if a.targetGen[slot] != a.gen {
		a.target.PredictInto(q, next)
		a.targetGen[slot] = a.gen
	}
	return q
}

// syncTarget snapshots the online weights into a freshly compiled target
// plan for states of length n, which invalidates every cached target
// row.
func (a *Agent) syncTarget(n int) error {
	p, err := nn.Compile(a.online, a.stateShape(n)...)
	if err != nil {
		return auerr.E(auerr.ErrSpecInvalid, "rl: compiling the target plan: %v", err)
	}
	a.target = p.NewInstance()
	a.gen++
	return nil
}
