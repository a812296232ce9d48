package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/autonomizer/autonomizer/internal/bench"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// input selects what the model sees: the paper's two RL configurations.
type input int

const (
	// inputAll feeds the extracted program variables, scaled and clamped
	// as bench.RunRLCtx does, into the 64-32 DQN.
	inputAll input = iota
	// inputRaw feeds the 16x16 downsampled screen into the DeepMind CNN.
	inputRaw
)

// rawDownsample shrinks the 64x64 screen to the 16x16 Raw input.
const rawDownsample = 4

// warmupTransitions is the rl package's default replay warm-up,
// max(BatchSize 32, 100): the first replayed update runs when the agent
// has observed this many transitions, and one runs per transition after.
const warmupTransitions = 100

// game is one Table 3 subject under the benchmark: the annotated program
// and its runtime, plus an un-autonomized twin stepped by the scripted
// player. Frames of the twin, the plain loop, are the unit of every
// CPU-bound loop metric.
type game struct {
	subj   *bench.RLSubject
	spec   core.ModelSpec
	encode func(env.Env) []float64

	seed  uint64
	rt    *core.Runtime
	prog  env.Env
	plain *plainLoop

	steps      int
	pendReward float64
	havePrev   bool // the next au_NN closes a transition
	observed   int  // transitions the agent has observed
	episodes   int
	deployed   int // frames deployed

	mid, final []byte // SaveModel images at half and at the end of training
}

// newGame builds one subject in Train mode, configured as bench.RunRLCtx
// configures it for a budget of trainFrames.
func newGame(subj *bench.RLSubject, in input, seed uint64, trainFrames int) (*game, error) {
	g := &game{subj: subj, seed: seed, prog: subj.NewEnv(seed), plain: newPlainLoop(subj, seed)}
	g.spec = core.ModelSpec{
		Name: subj.Name, Algo: core.QLearn, Actions: subj.Actions,
		Hidden: []int{64, 32}, LR: 1e-3,
		EpsilonDecaySteps: trainFrames * 6 / 10,
		Gamma:             0.97,
		TargetSyncEvery:   150,
		ReplayCapacity:    20000,
		LearnEvery:        1,
	}
	switch in {
	case inputRaw:
		side := 64 / rawDownsample
		g.spec.Type = core.CNN
		g.spec.InputShape = []int{1, side, side}
		g.encode = func(e env.Env) []float64 { return env.RawState(e, rawDownsample) }
	default:
		g.encode = scaledState(subj.Features, subj.FeatureScale)
	}
	g.rt = core.NewRuntime(core.Train, seed*31+uint64(in))
	if err := g.rt.Config(g.spec); err != nil {
		return nil, err
	}
	g.prog.Reset()
	return g, nil
}

// scaledState is the All-mode encoder of bench.RunRLCtx: each feature
// divided by its scale and clamped to [-1.5, 1.5].
func scaledState(feats []string, scale []float64) func(env.Env) []float64 {
	return func(e env.Env) []float64 {
		v := env.StateVector(e, feats)
		for i := range v {
			if i < len(scale) && scale[i] != 0 {
				v[i] /= scale[i]
			}
			v[i] = stats.Clamp(v[i], -1.5, 1.5)
		}
		return v
	}
}

// checkpoint is au_checkpoint at loop entry, traced as its own root.
func (g *game) checkpoint(tr *tracer) {
	s := tr.open("core.checkpoint", tr.now())
	g.rt.Checkpoint(g.prog, 1<<20)
	tr.close(&s, tr.now())
}

// trainFrame runs one iteration of the annotated loop in Train mode, as
// bench.RunRLCtx does: the reward of the previous action reaches the
// model at the top of the next iteration, and an end state closes the
// trajectory with a terminal au_NN and rolls back with au_restore.
// Traced, the au_NN calls that ran a replayed update are added to learn.
func (g *game) trainFrame(tr *tracer, learn *spanAgg) error {
	f := tr.open("frame", tr.now())
	t := f.start
	state := g.encode(g.prog)
	t = tr.step(&f, "env.encode", t)
	g.rt.Extract("STATE", state...)
	t = tr.step(&f, "core.extract", t)
	t0 := t
	if err := g.rt.NNRL(g.subj.Name, "STATE", g.pendReward, false, "output"); err != nil {
		return err
	}
	t = tr.step(&f, "core.nnrl", t)
	g.noteObserve(learn, t.Sub(t0))
	g.havePrev = true
	action, err := g.rt.WriteBackAction("output")
	if err != nil {
		return err
	}
	t = tr.step(&f, "core.writeback", t)
	reward, terminal := g.prog.Step(action)
	t = tr.step(&f, "env.step", t)
	g.pendReward = reward
	g.steps++
	if terminal || g.steps >= g.subj.MaxEpisodeSteps {
		state = g.encode(g.prog)
		t = tr.step(&f, "env.encode", t)
		g.rt.Extract("STATE", state...)
		t = tr.step(&f, "core.extract", t)
		t0 = t
		if err := g.rt.NNRL(g.subj.Name, "STATE", reward, true, "output"); err != nil {
			return err
		}
		t = tr.step(&f, "core.nnrl", t)
		g.noteObserve(learn, t.Sub(t0))
		if err := g.rt.Restore(g.prog); err != nil {
			return err
		}
		t = tr.step(&f, "core.restore", t)
		g.pendReward, g.steps, g.havePrev = 0, 0, false
		g.episodes++
	}
	tr.close(&f, t)
	return nil
}

// noteObserve counts the transition an au_NN call closed and, when it
// ran a replayed update, adds its duration (zero when untraced) to learn.
func (g *game) noteObserve(learn *spanAgg, d time.Duration) {
	if !g.havePrev {
		return
	}
	g.observed++
	if g.observed >= warmupTransitions {
		learn.Count++
		learn.Total += d
	}
}

// deployFrame runs one iteration of the annotated loop in Test mode and
// returns the action it wrote back.
func (g *game) deployFrame(tr *tracer, state *[]float64) (int, error) {
	f := tr.open("frame", tr.now())
	t := f.start
	*state = g.encode(g.prog)
	t = tr.step(&f, "env.encode", t)
	g.rt.Extract("STATE", *state...)
	t = tr.step(&f, "core.extract", t)
	if err := g.rt.NNRL(g.subj.Name, "STATE", 0, false, "output"); err != nil {
		return 0, err
	}
	t = tr.step(&f, "core.nnrl", t)
	action, err := g.rt.WriteBackAction("output")
	if err != nil {
		return 0, err
	}
	t = tr.step(&f, "core.writeback", t)
	_, terminal := g.prog.Step(action)
	t = tr.step(&f, "env.step", t)
	g.steps++
	if terminal || g.steps >= g.subj.MaxEpisodeSteps {
		if err := g.rt.Restore(g.prog); err != nil {
			return 0, err
		}
		t = tr.step(&f, "core.restore", t)
		g.steps = 0
		g.episodes++
	}
	tr.close(&f, t)
	return action, nil
}

// plainLoop is the un-autonomized program: the game stepped by its
// scripted player, with no annotations.
type plainLoop struct {
	subj  *bench.RLSubject
	env   env.Env
	steps int
}

func newPlainLoop(subj *bench.RLSubject, seed uint64) *plainLoop {
	p := &plainLoop{subj: subj, env: subj.NewEnv(seed)}
	p.env.Reset()
	return p
}

// run steps n frames, starting a new episode at each end state.
func (p *plainLoop) run(n int) {
	for i := 0; i < n; i++ {
		_, term := p.env.Step(p.subj.Player(p.env))
		p.steps++
		if term || p.steps >= p.subj.MaxEpisodeSteps {
			p.env.Reset()
			p.steps = 0
		}
	}
}

// plainSlice steps the game's plain loop n frames and returns the time.
func (g *game) plainSlice(n int) time.Duration {
	t0 := time.Now()
	g.plain.run(n)
	return time.Since(t0)
}

// loopResult is the loop half of one workload run.
type loopResult struct {
	train, deploy        [][]pair // per game, in Table 3 order; train past warm-up
	traced               [][]pair // deploy pairs run traced, per game
	trainFrames          int
	trainTime            time.Duration
	deployFrames         int
	frameNS              []float32 // untraced deployed frames, ns; pairs index it
	checks, mismatches   int
	learn                spanAgg
	updates, replayBytes int
	episodes             int
	digests              []string // "<game> <fnv64>", Table 3 order
	states               [][]float64
}

// train runs the Train-mode phase: every game trains for sz.TrainFrames
// in slices of sz.TrainSlice frames, each followed by sz.TrainPlain
// frames of the plain loop. Only slices past the replay warm-up, whose
// frames all learn, are kept as pairs, so the pairs are alike.
func train(games []*game, sz sizes, tr *tracer, res *loopResult) error {
	for _, g := range games {
		g.checkpoint(tr)
		var ps []pair
		learning := false // every frame of the next slice runs a replayed update
		for done := 0; done < sz.TrainFrames; {
			n := min(sz.TrainSlice, sz.TrainFrames-done)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := g.trainFrame(tr, &res.learn); err != nil {
					return fmt.Errorf("train %s: %w", g.subj.Name, err)
				}
			}
			p := pair{work: time.Since(t0), units: n, plainFrames: sz.TrainPlain}
			p.plain = g.plainSlice(sz.TrainPlain)
			res.trainTime += p.work
			if learning {
				ps = append(ps, p)
			}
			learning = g.observed >= warmupTransitions
			if done < sz.TrainFrames/2 && done+n >= sz.TrainFrames/2 {
				img, err := g.rt.SaveModel(g.subj.Name)
				if err != nil {
					return err
				}
				g.mid = img
			}
			done += n
		}
		res.train = append(res.train, ps)
		res.trainFrames += sz.TrainFrames
		img, err := g.rt.SaveModel(g.subj.Name)
		if err != nil {
			return err
		}
		g.final = img
		h := fnv.New64a()
		h.Write(img)
		res.digests = append(res.digests, fmt.Sprintf("%s %016x", g.subj.Name, h.Sum64()))
		st, ok := g.rt.RLStats(g.subj.Name)
		if !ok || st.Steps != g.observed {
			return fmt.Errorf("train %s: agent observed %d transitions, the loop closed %d", g.subj.Name, st.Steps, g.observed)
		}
		res.updates += max(0, g.observed-warmupTransitions+1)
		res.replayBytes += st.TraceBytes
		res.episodes += g.episodes
	}
	return nil
}

// deployRuntime loads a game's final weights into a fresh Test-mode
// runtime and resets the program for deployment.
func (g *game) deployRuntime(seed uint64) error {
	rt := core.NewRuntime(core.Test, seed)
	rt.LoadModel(g.subj.Name, g.final)
	if err := rt.Config(g.spec); err != nil {
		return err
	}
	g.rt = rt
	g.prog = g.subj.NewEnv(seed)
	g.prog.Reset()
	g.steps, g.episodes = 0, 0
	return nil
}

// checkEvery spaces the deployed-action gate: every n-th deployed frame
// of a game is checked against argmax(Runtime.Predict) outside the timed
// region.
const checkEvery = 61

// deploy runs the Test-mode phase round-robin over the games in slices
// of sz.DeploySlice frames, each followed by sz.DeployPlain plain frames,
// until budget has passed (and at least sz.MinDeployRounds rounds). The
// served game's checked states are kept for serving and the probe. With
// alternate, odd rounds run untraced, so traced and untraced costs can
// be compared; per-frame samples come from untraced rounds only.
func deploy(games []*game, sz sizes, budget time.Duration, tr *tracer, alternate bool, res *loopResult) error {
	for _, g := range games {
		g.checkpoint(tr)
	}
	res.deploy = make([][]pair, len(games))
	res.traced = make([][]pair, len(games))
	var state []float64
	start := time.Now()
	for round := 0; round < sz.MinDeployRounds || time.Since(start) < budget; round++ {
		rtr := tr
		if alternate && round%2 == 1 {
			rtr = nil
		}
		for gi, g := range games {
			p := pair{units: sz.DeploySlice, plainFrames: sz.DeployPlain}
			p.samples[0] = len(res.frameNS)
			t0 := time.Now()
			for i := 0; i < sz.DeploySlice; i++ {
				action, err := g.deployFrame(rtr, &state)
				if err != nil {
					return fmt.Errorf("deploy %s: %w", g.subj.Name, err)
				}
				t1 := time.Now()
				d := t1.Sub(t0)
				p.work += d
				if rtr == nil {
					res.frameNS = append(res.frameNS, float32(d.Nanoseconds()))
				}
				if g.deployed++; g.deployed%checkEvery == 0 {
					res.checks++
					out, err := g.rt.Predict(g.subj.Name, state)
					if err != nil {
						return err
					}
					if stats.ArgMax(out) != action {
						res.mismatches++
					}
					if g.subj.Name == servedGame && len(res.states) < sz.KeepStates {
						res.states = append(res.states, state)
					}
					t1 = time.Now()
				}
				t0 = t1
			}
			p.samples[1] = len(res.frameNS)
			p.plain = g.plainSlice(sz.DeployPlain)
			res.deployFrames += sz.DeploySlice
			if rtr == nil {
				res.deploy[gi] = append(res.deploy[gi], p)
			} else {
				res.traced[gi] = append(res.traced[gi], p)
			}
		}
	}
	for _, g := range games {
		res.episodes += g.episodes
	}
	return nil
}
