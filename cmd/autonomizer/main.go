// Command autonomizer regenerates the paper's evaluation: every table
// and figure of "Programming Support for Autonomizing Software" (PLDI
// 2019), reproduced on the Go reimplementation.
//
// Usage:
//
//	autonomizer table1            program-analysis statistics
//	autonomizer table2            model statistics (runs the SL+RL suites)
//	autonomizer table3            effectiveness (SL and RL halves)
//	autonomizer fig12             Canny per-input scores
//	autonomizer fig13             Canny score-vs-epoch curves
//	autonomizer fig17             TORCS driving-score curves (All/Manual/Raw)
//	autonomizer coverage          self-testing case study + bug hunt
//	autonomizer demo              quick end-to-end demonstration
//	autonomizer serve             exercise the runtime, then serve telemetry until interrupted
//	autonomizer all               everything above
//
// Flags:
//
//	-quick              smaller budgets (seconds instead of minutes)
//	-seed N             experiment seed (default 1)
//	-telemetry :PORT    serve /metrics, /debug/vars and /debug/pprof on this address
//	-log-format F       diagnostic log format: text (default) or json
//	-log-level L        minimum log level: debug, info (default), warn, error
//	-trace              record per-primitive spans (see /debug/spans)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/bench"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "run with reduced budgets")
	seed := flag.Uint64("seed", 1, "experiment seed")
	telemetry := flag.String("telemetry", "", "address to serve /metrics, /debug/vars and /debug/pprof on (e.g. :9090)")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	traceSpans := flag.Bool("trace", false, "record per-primitive spans (exported on /debug/spans)")
	walDir := flag.String("wal", "", "directory for durable WAL state (train/resume verbs)")
	fitEpochs := flag.Int("fit-epochs", 8, "epochs for the train verb's fit job")
	fitBatch := flag.Int("fit-batch", 8, "minibatch size for the train verb's fit job")
	fitExamples := flag.Int("fit-examples", 256, "dataset size for the train verb's fit job")
	ckptEvery := flag.Int("ckpt-every", 1, "journal a resumable checkpoint every N minibatches")
	crashAfter := flag.Int("crash-after-batches", 0, "SIGKILL self after N durable checkpoints (crash-recovery harness)")
	flag.Usage = usage
	flag.Parse()
	if err := obs.ConfigureLog(*logFormat, os.Stderr); err != nil {
		obs.Logger().Error("bad -log-format", "err", err)
		os.Exit(2)
	}
	if err := obs.SetLogLevel(*logLevel); err != nil {
		obs.Logger().Error("bad -log-level", "err", err)
		os.Exit(2)
	}
	obs.SetTracing(*traceSpans)
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	log := obs.With("cmd", cmd)

	// First SIGINT/SIGTERM cancels the context: suites stop at the next
	// minibatch/step boundary and flush whatever tables they completed.
	// A second signal kills the process the usual way (stop() restores
	// default signal handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -telemetry enables the metrics registry BEFORE any runtime or
	// optimizer is constructed (instruments are resolved at
	// construction) and serves the endpoints next to the workload.
	if *telemetry != "" {
		obs.Enable()
		go func() {
			if err := obs.Serve(ctx, *telemetry); err != nil {
				log.Error("telemetry server failed", "addr", *telemetry, "err", err)
			}
		}()
		log.Info("telemetry listening", "addr", *telemetry,
			"endpoints", "/metrics /debug/vars /debug/pprof /debug/spans")
	}

	start := time.Now()
	var err error
	switch cmd {
	case "table1":
		err = runTable1(*seed)
	case "table2":
		err = runTable2(ctx, *quick, *seed)
	case "table3":
		err = runTable3(ctx, *quick, *seed)
	case "fig12", "fig13":
		err = runCannyFigs(ctx, cmd, *quick, *seed)
	case "fig17":
		err = runFig17(ctx, *quick, *seed)
	case "coverage":
		err = runCoverage(*quick, *seed)
	case "ablation":
		err = runAblation(ctx, *quick, *seed)
	case "depgraph":
		if flag.NArg() < 2 {
			log.Error("usage: autonomizer depgraph <subject>")
			os.Exit(2)
		}
		err = runDepGraph(flag.Arg(1), *seed)
	case "demo":
		err = runDemo(ctx, *seed)
	case "train", "resume":
		err = runDurable(ctx, log, durableConfig{
			dir:        *walDir,
			seed:       *seed,
			epochs:     *fitEpochs,
			batch:      *fitBatch,
			examples:   *fitExamples,
			ckptEvery:  *ckptEvery,
			crashAfter: *crashAfter,
			enqueue:    cmd == "train",
		})
	case "serve":
		if *telemetry == "" {
			log.Error("serve needs -telemetry ADDR to have endpoints to serve")
			os.Exit(2)
		}
		err = runServe(ctx, log, *seed)
	case "all":
		for _, c := range []func() error{
			func() error { return runTable1(*seed) },
			func() error { return runTable3(ctx, *quick, *seed) },
			func() error { return runTable2(ctx, *quick, *seed) },
			func() error { return runCannyFigs(ctx, "fig12+fig13", *quick, *seed) },
			func() error { return runFig17(ctx, *quick, *seed) },
			func() error { return runCoverage(*quick, *seed) },
		} {
			if err = c(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		log.Error("unknown command", "cmd", cmd)
		usage()
		os.Exit(2)
	}
	if errors.Is(err, auerr.ErrCanceled) {
		log.Warn("interrupted — partial results above",
			"after", time.Since(start).Round(time.Millisecond*100))
		os.Exit(130)
	}
	if err != nil {
		log.Error("command failed", "err", err)
		os.Exit(1)
	}
	log.Info("completed", "in", time.Since(start).Round(time.Millisecond*100))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: autonomizer [-quick] [-seed N] <command>

commands:
  table1     program-analysis statistics (paper Table 1)
  table2     model statistics (paper Table 2)
  table3     effectiveness comparison (paper Table 3)
  fig12      Canny per-input scores (paper Fig. 12)
  fig13      Canny score vs epochs (paper Fig. 13)
  fig17      TORCS driving curves (paper Fig. 17)
  coverage   self-testing case study + bug hunt (paper Section 2)
  ablation   design-choice ablations (feature ranking, trace pruning)
  depgraph   dump a subject's dynamic dependence graph as Graphviz DOT
  demo       quick end-to-end demonstration
  serve      exercise every primitive once, then serve telemetry until interrupted
  train      enqueue a fit job into the durable -wal queue and run it to completion
  resume     drain the durable -wal queue, resuming any interrupted fit from its checkpoint
  all        run everything

network model serving (batched inference over HTTP) is the separate
auserve command; see cmd/auserve.`)
}

func runTable1(seed uint64) error {
	bench.RenderTable1(os.Stdout, bench.BuildTable1(seed))
	return nil
}

func slSuite(ctx context.Context, quick bool, seed uint64) ([]*bench.SLResult, error) {
	return bench.RunSLSuiteCtx(ctx, bench.SLSuiteConfig{Quick: quick, Seed: seed})
}

func rlSuite(ctx context.Context, quick bool, seed uint64) ([]bench.Table3RLRow, error) {
	return bench.RunRLSuiteCtx(ctx, bench.RLSuiteConfig{Quick: quick, Seed: seed})
}

func runTable2(ctx context.Context, quick bool, seed uint64) error {
	sl, err := slSuite(ctx, quick, seed)
	if err != nil {
		return err
	}
	rl, err := rlSuite(ctx, quick, seed)
	if err != nil && !errors.Is(err, auerr.ErrCanceled) {
		return err
	}
	// On interrupt, build the table from whatever completed.
	bench.RenderTable2(os.Stdout, bench.BuildTable2(sl, rl))
	return err
}

func runTable3(ctx context.Context, quick bool, seed uint64) error {
	sl, err := slSuite(ctx, quick, seed)
	if len(sl) > 0 {
		bench.RenderTable3SL(os.Stdout, sl)
	}
	if err != nil {
		return err
	}
	fmt.Println()
	rl, err := rlSuite(ctx, quick, seed)
	if len(rl) > 0 {
		bench.RenderTable3RL(os.Stdout, rl)
	}
	return err
}

func runCannyFigs(ctx context.Context, which string, quick bool, seed uint64) error {
	cfg := bench.SLConfig{Seed: seed, TrainN: 60, TestN: 10, Epochs: 60, Hidden: []int{64, 32}}
	if quick {
		cfg.TrainN, cfg.TestN, cfg.Epochs = 24, 10, 15
		cfg.Hidden = []int{32, 16}
	}
	res, err := bench.RunSLCtx(ctx, bench.CannySubject{}, cfg)
	if err != nil {
		return err
	}
	if which != "fig13" {
		bench.RenderFig12(os.Stdout, res)
	}
	if which != "fig12" {
		fmt.Println()
		bench.RenderFig13(os.Stdout, res, 3)
	}
	return nil
}

func runFig17(ctx context.Context, quick bool, seed uint64) error {
	subject := bench.TORCSSubject()
	run := func(mode bench.InputMode, wall time.Duration) (*bench.RLResult, error) {
		cfg := bench.TunedRLConfig(subject, mode, wall)
		cfg.Seed = seed
		// Disable early stopping so the full curves render, as in the
		// paper's figure.
		cfg.NoEarlyStop = true
		cfg.EvalEpisodes = 5
		cfg.EvalEvery = cfg.TrainSteps / 20
		if quick {
			cfg.TrainSteps = 6000
			cfg.EpsilonDecaySteps = 3000
			cfg.EvalEvery = 500
		}
		return bench.RunRLCtx(ctx, subject, cfg)
	}
	all, err := run(bench.InputAll, 0)
	if err != nil {
		return err
	}
	manual, err := run(bench.InputManual, 0)
	if err != nil {
		return err
	}
	raw, err := run(bench.InputRaw, all.TrainTime+manual.TrainTime)
	if err != nil {
		return err
	}
	bench.RenderFig17(os.Stdout, all, manual, raw)
	return nil
}

func runCoverage(quick bool, seed uint64) error {
	cfg := bench.SelfTestConfig{Seed: seed}
	huntSteps := 150000
	if quick {
		cfg.TrainSteps = 4000
		cfg.PlayWindow = 400
		huntSteps = 30000
	}
	res, err := bench.RunSelfTest(cfg)
	if err != nil {
		return err
	}
	hunt := bench.RunBugHunt(seed, huntSteps)
	bench.RenderSelfTest(os.Stdout, res, hunt)
	return nil
}

func runAblation(ctx context.Context, quick bool, seed uint64) error {
	// Ablation 1: Algorithm 1's distance ranking. Min vs Raw on the
	// same Canny corpus isolates the ranking's contribution.
	cfg := bench.SLConfig{Seed: seed, TrainN: 60, TestN: 10, Epochs: 60, Hidden: []int{64, 32}}
	if quick {
		cfg.TrainN, cfg.TestN, cfg.Epochs = 24, 8, 15
		cfg.Hidden = []int{32, 16}
	}
	res, err := bench.RunSLCtx(ctx, bench.CannySubject{}, cfg)
	if err != nil {
		return err
	}
	min, raw := res.Versions[bench.PickMin], res.Versions[bench.PickRaw]
	fmt.Println("Ablation 1: Algorithm 1 distance ranking (Canny)")
	fmt.Printf("  ranked (Min):   score %.3f, %d inputs, train %v\n",
		min.Score, min.InputSize, min.TrainTime.Round(time.Millisecond))
	fmt.Printf("  unranked (Raw): score %.3f, %d inputs, train %v\n",
		raw.Score, raw.InputSize, raw.TrainTime.Round(time.Millisecond))
	fmt.Printf("  %s\n\n", rankingVerdict(min.Score, raw.Score, min.TrainTime, raw.TrainTime))

	// Ablation 2: Algorithm 2's pruning on TORCS.
	fmt.Println("Ablation 2: Algorithm 2 trace pruning (TORCS)")
	for _, with := range []bool{true, false} {
		feats := bench.TORCSFeatureAblation(seed, with)
		fmt.Printf("  pruning=%v: %d features: %v\n", with, len(feats), feats)
	}
	return nil
}

// rankingVerdict words Ablation 1's outcome: ranked Min's score against
// unranked Raw's as a win, a loss or a tie, and Min's training time
// against Raw's as a multiple less or more.
func rankingVerdict(minScore, rawScore float64, minTrain, rawTrain time.Duration) string {
	score := "ties on score"
	switch pct := math.Round(100 * (minScore - rawScore) / rawScore); {
	case pct > 0:
		score = fmt.Sprintf("wins by %.0f%% score", pct)
	case pct < 0:
		score = fmt.Sprintf("loses by %.0f%% score", -pct)
	}
	cost := fmt.Sprintf("%.1fx less training time", float64(rawTrain)/float64(minTrain))
	if rawTrain < minTrain {
		cost = fmt.Sprintf("%.1fx more training time", float64(minTrain)/float64(rawTrain))
	}
	return fmt.Sprintf("ranking %s at %s", score, cost)
}

func runDepGraph(subject string, seed uint64) error {
	g, err := bench.SubjectDepGraph(subject, seed)
	if err != nil {
		return err
	}
	fmt.Print(g.DOT(subject))
	return nil
}

// serveState is the toy program state σ checkpointed by the serve
// workload.
type serveState struct{ x float64 }

func (s *serveState) Snapshot() any    { return *s }
func (s *serveState) Restore(snap any) { *s = snap.(serveState) }

// runServe exercises every primitive once — including one expected
// failure, so the auerr-classed error counters export non-zero series —
// then blocks until the context is canceled, leaving the telemetry
// endpoints serving live data. CI's smoke test curls /metrics against
// exactly this workload.
func runServe(ctx context.Context, log *slog.Logger, seed uint64) error {
	rt := core.NewRuntime(core.Train, seed)
	if err := rt.ConfigCtx(ctx, core.ModelSpec{Name: "ServeNN", Algo: core.AdamOpt, Hidden: []int{8}}); err != nil {
		return err
	}
	if err := rt.ConfigCtx(ctx, core.ModelSpec{Name: "ServeQ", Algo: core.QLearn, Actions: 2, Hidden: []int{8}}); err != nil {
		return err
	}
	prog := &serveState{}
	if err := rt.CheckpointCtx(ctx, prog, 8); err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		x := float64(i) / 32
		if err := rt.ExtractCtx(ctx, "a", x); err != nil {
			return err
		}
		if err := rt.ExtractCtx(ctx, "b", 1-x); err != nil {
			return err
		}
		key, err := rt.SerializeCtx(ctx, "a", "b")
		if err != nil {
			return err
		}
		if err := rt.ExtractCtx(ctx, "y", 2*x); err != nil {
			return err
		}
		if err := rt.NNCtx(ctx, "ServeNN", key, "y"); err != nil {
			return err
		}
		var out [1]float64
		if _, err := rt.WriteBackCtx(ctx, "y", out[:]); err != nil {
			return err
		}
		rt.DB().Reset("y") // consume the prediction before the next oracle label
		if err := rt.ExtractCtx(ctx, "state", x, 1-x); err != nil {
			return err
		}
		if err := rt.NNRLCtx(ctx, "ServeQ", "state", out[0], i == 31, "act"); err != nil {
			return err
		}
		prog.x = x
	}
	if _, err := rt.FitCtx(ctx, "ServeNN", 3, 8); err != nil {
		return err
	}
	if err := rt.RestoreCtx(ctx, prog); err != nil {
		return err
	}
	if _, err := rt.PredictCtx(ctx, "ServeNN", []float64{0.5, 0.5}); err != nil {
		return err
	}
	// Expected failure: write-back of a name no au_NN ever bound.
	if _, err := rt.WriteBackCtx(ctx, "unbound", nil); err == nil {
		return fmt.Errorf("serve: write_back of unbound name unexpectedly succeeded")
	}
	log.Info("workload complete; serving telemetry until interrupted",
		"models", rt.ModelNames())
	<-ctx.Done()
	return nil
}

func runDemo(ctx context.Context, seed uint64) error {
	fmt.Println("== Autonomizer demo: Flappybird with internal-state features ==")
	res, err := bench.RunRLCtx(ctx, bench.FlappySubject(), bench.RLConfig{
		Mode: bench.InputAll, TrainSteps: 30000, EvalEpisodes: 5,
		EpsilonDecaySteps: 8000, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("players %.0f%%  trained agent %.0f%% (train %v, competitive at step %d)\n",
		100*res.PlayerScore, 100*res.Score, res.TrainTime.Round(time.Millisecond*100),
		res.StepsToCompetitive)
	return nil
}
