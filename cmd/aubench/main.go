// Command aubench measures what a user of Autonomizer pays: the
// per-frame cost of the annotated game loop (the paper's Table 3 exec
// overhead, All vs Raw) and the latency of served predictions under
// open-loop load. Traced, it splits both into the layers below them.
//
//	aubench -workload dnn|cnn|all [-seed N] [-seconds S] [-trace 0|1]
//	        [-trace-out spans.json] [-json results.jsonl]
//	aubench -compare a.jsonl b.jsonl
//
// It prints one line per metric, "<workload> <metric> <value> <unit>",
// and, last, one JSON object with the fields correct, attempted, failed
// and metrics. Any output that differs from its reference (served
// responses against embedded predictions, deployed actions against
// argmax(Predict), seed-1 weight digests against the recorded ones)
// makes correct false and the exit code 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"github.com/autonomizer/autonomizer/internal/bench"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// workload is one model family exercised through both paths a user
// calls: the embedded annotated loop over the five games, and the
// serving stack over the trained Mario model.
type workload struct {
	name string
	in   input
}

var workloads = []workload{{"dnn", inputAll}, {"cnn", inputRaw}}

// sizes fixes how much work a run does. Training is fixed work, so the
// trained weights (and their digests) depend only on the seed; the other
// phases share what is left of the run's seconds.
type sizes struct {
	TrainFrames int `json:"train_frames"` // per game
	TrainSlice  int `json:"train_slice"`  // train frames per timed slice
	TrainPlain  int `json:"train_plain"`  // plain frames after each train slice

	DeploySlice     int `json:"deploy_slice"` // deployed frames per slice
	DeployPlain     int `json:"deploy_plain"` // plain frames after each deploy slice
	MinDeployRounds int `json:"min_deploy_rounds"`
	KeepStates      int `json:"keep_states"` // recorded Mario states for serving and the probe

	LightRPS    float64 `json:"light_rps"`
	HeavyRPS    float64 `json:"heavy_rps"`
	ServeRounds int     `json:"serve_rounds"` // the serving phases take turns this many times

	PeakInFlight  int           `json:"peak_in_flight"`
	PeakSlice     time.Duration `json:"peak_slice_ns"`
	PeakPlain     int           `json:"peak_plain"`
	MinPeakSlices int           `json:"min_peak_slices"`

	ReloadSlice  int `json:"reload_slice"`  // quiet reloads per timed slice
	ObserveSlice int `json:"observe_slice"` // quiet observes per timed slice
	WritePlain   int `json:"write_plain"`   // plain frames after each write slice
	MinWrites    int `json:"min_writes"`    // of each kind, per round

	SetupPerPhase int `json:"setup_per_phase"` // extra set-ups timed after each phase
	SetupPlain    int `json:"setup_plain"`     // plain frames after each set-up
	ProbeReps     int `json:"probe_reps"`
	ProbeStates   int `json:"probe_states"`
}

// defaultSizes are the sizes of a benchmark run. All trains 3,000 frames
// per game; Raw, whose frames cost about 8x more, 400. Slices are a few
// milliseconds long, shorter than the host's CPU-mode phases (pairs.go).
//
// No source gives the rate at which callers send predictions, so the two
// open-loop rates are assumptions, placed by the batcher's geometry
// (MaxDelay 2 ms, MaxBatch 32): light brings about 2 requests per
// batching window, so the window is most of the latency; heavy about 8,
// so batches form and requests queue. Heavy is also low enough that no
// request is shed on a shared 2-vCPU VM: the catch-up burst after a 50 ms
// host stall (200 requests) fits the 256-deep queue.
func defaultSizes(in input) sizes {
	sz := sizes{
		TrainFrames: 3000, TrainSlice: 10, TrainPlain: 500,
		DeploySlice: 1000, DeployPlain: 1000, MinDeployRounds: 2, KeepStates: 512,
		LightRPS: 1000, HeavyRPS: 4000, ServeRounds: 4,
		PeakInFlight: 64, PeakSlice: 50 * time.Millisecond, PeakPlain: 2000, MinPeakSlices: 4,
		ReloadSlice: 4, ObserveSlice: 32, WritePlain: 2000, MinWrites: 4,
		SetupPerPhase: 8, SetupPlain: 2000, ProbeReps: 20, ProbeStates: 64,
	}
	if in == inputRaw {
		sz.TrainFrames, sz.TrainSlice = 400, 1
		sz.DeploySlice, sz.DeployPlain = 100, 500
	}
	return sz
}

// Shares of the run's seconds left after training.
const (
	deployShare  = 0.28
	lightShare   = 0.15
	heavyShare   = 0.28
	peakShare    = 0.19
	reloadShare  = 0.05
	observeShare = 0.05
)

// Validity limits: a heavy phase over the latency limit, or any phase
// whose generator ran late by more than the lag limit at p99, is flagged.
// Go's timers wake an idle process with millisecond resolution (the
// netpoller's wait takes whole milliseconds), so up to ~1 ms of lag is the
// generator's own resolution; latencies, timed from due times, include it.
const (
	latencyLimitMS = 10.0
	lagLimitMS     = 2.0
)

// refPlainFrame converts set-up cost from plain frames to seconds: it is
// the plain Mario frame of a shared 2-vCPU Xeon VM (AVX2 kernels) in its
// fast mode. setup_s is thus set-up time on that VM in that mode. Wall
// time would not do: the VM's slow stretches, minutes long, made set-up
// up to twice as slow between otherwise identical runs.
const refPlainFrame = 850 * time.Nanosecond

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is one workload run.
type result struct {
	Workload  string
	Seed      uint64
	Traced    bool
	Sizes     sizes
	Metrics   []metric
	Attempted int
	Failed    int
	Problems  []string // correctness mismatches
	Flags     []string // validity warnings
	Digests   []string
	Timeline  []string // "<phase> <seconds>", in run order
}

// add records a metric. A latency quantile that failed requests reached
// is +Inf; it is reported as the largest float64, which JSON can carry.
func (r *result) add(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

// mark notes that a phase which began at start has ended.
func (r *result) mark(phase string, start time.Time) {
	r.Timeline = append(r.Timeline, fmt.Sprintf("%s %.2fs", phase, time.Since(start).Seconds()))
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setup builds everything a run needs before measuring: the five games
// (environments, Train-mode runtime, au_config) and the serving stack
// with the served model's architecture installed (compile and pack).
func setup(in input, seed uint64, sz sizes, traced bool) ([]*game, *stack, error) {
	var games []*game
	var served *game
	for _, subj := range bench.AllRLSubjects() {
		g, err := newGame(subj, in, seed, sz.TrainFrames)
		if err != nil {
			return nil, nil, err
		}
		games = append(games, g)
		if subj.Name == servedGame {
			served = g
		}
	}
	rt := core.NewRuntime(core.Train, 0)
	if err := rt.Config(served.spec); err != nil {
		return nil, nil, err
	}
	rt.Extract("STATE", served.encode(served.plain.env)...)
	if err := rt.NNRL(servedGame, "STATE", 0, false, "output"); err != nil {
		return nil, nil, err
	}
	img, err := rt.SaveModel(servedGame)
	if err != nil {
		return nil, nil, err
	}
	st, err := newStack(served.spec, img, traced)
	if err != nil {
		return nil, nil, err
	}
	return games, st, nil
}

// runWorkload runs one workload for about seconds of measurement after
// set-up. Untraced it reports the end-to-end metrics; traced (tr non-nil)
// the per-layer metrics.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds float64, sz sizes, tr *trace) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: tr != nil, Sizes: sz}
	// Set-up is timed once before measuring and again after every phase,
	// so its median samples the whole run, not one moment of the host.
	// Like every CPU cost (pairs.go), each set-up is paired with a slice
	// of the plain Mario loop right after it; setupX holds each set-up in
	// plain frames.
	subjects := bench.AllRLSubjects()
	ref := newPlainLoop(subjects[slices.IndexFunc(subjects, func(s *bench.RLSubject) bool { return s.Name == servedGame })], seed)
	var setupX []float64
	timedSetup := func() ([]*game, *stack, error) {
		// Each set-up starts as a fresh process does, with the heap's
		// free memory returned to the system: consistent, and honest
		// about the page faults a first set-up takes.
		debug.FreeOSMemory()
		t0 := time.Now()
		games, st, err := setup(w.in, seed, sz, tr != nil)
		d := time.Since(t0)
		runtime.GC()
		t1 := time.Now()
		ref.run(sz.SetupPlain)
		setupX = append(setupX, float64(d)*float64(sz.SetupPlain)/float64(time.Since(t1)))
		return games, st, err
	}
	resetup := func() error {
		for i := 0; i < sz.SetupPerPhase; i++ {
			_, st, err := timedSetup()
			if err != nil {
				return err
			}
			st.srv.Close()
		}
		return nil
	}
	games, st, err := timedSetup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.srv.Close()
	served := games[slices.IndexFunc(games, func(g *game) bool { return g.subj.Name == servedGame })]
	start := time.Now()
	t := start
	// phase ends a phase: it notes its duration and times the extra
	// set-ups, which the next phase's clock does not count.
	phase := func(name string) error {
		res.mark(name, t)
		err := resetup()
		t = time.Now()
		return err
	}

	var lr loopResult
	if err := train(games, sz, tr.phase("train"), &lr); err != nil {
		return nil, err
	}
	res.Digests = lr.digests
	if want, ok := seed1Digests[w.name]; ok && seed == 1 && sz.TrainFrames == defaultSizes(w.in).TrainFrames {
		if !slices.Equal(lr.digests, want) {
			res.problem("trained-weight digests %q, recorded %q", lr.digests, want)
		}
	}
	left := max(time.Duration(seconds*float64(time.Second))-time.Since(start), 0)
	if err := phase("train"); err != nil {
		return nil, err
	}

	for _, g := range games {
		if err := g.deployRuntime(seed); err != nil {
			return nil, err
		}
	}
	if err := deploy(games, sz, scale(left, deployShare), tr.phase("deploy"), tr != nil, &lr); err != nil {
		return nil, err
	}
	res.Attempted += lr.trainFrames + lr.deployFrames
	if lr.mismatches > 0 {
		res.problem("%d of %d sampled deployed actions differ from argmax(Runtime.Predict)", lr.mismatches, lr.checks)
	}
	if len(lr.states) == 0 {
		return nil, errors.New("deploy recorded no served-game states")
	}
	if err := phase("deploy"); err != nil {
		return nil, err
	}

	// Serving: the trained model replaces the set-up install, and the
	// reloads alternate it with the mid-training image.
	if _, err := st.srv.Install(servedGame, served.spec, served.final); err != nil {
		return nil, err
	}
	images := [2][]byte{served.final, served.mid}
	o, err := newOracle(served.spec, images, lr.states)
	if err != nil {
		return nil, err
	}
	send := st.clientSender(o)
	reload := func(k int) error {
		_, err := st.cli.Reload(ctx, servedGame, images[k%2])
		return err
	}
	// An observe reports the other image's output as the ground truth of
	// a recorded state's prediction, as a caller feeding the drift monitor
	// does.
	observe := func(k int) error {
		i := k % len(o.inputs)
		_, err := st.cli.ObserveCtx(ctx, servedGame, o.want[0][i], o.want[1][i])
		return err
	}
	// The serving phases run in rounds, so each samples the whole run
	// rather than one stretch of it. Each starts from a collected heap, so
	// how often the collector runs in it does not depend on what ran before.
	// Writes run alone, in phases of their own: no source says how callers
	// mix them with predicts.
	perRound := func(share float64) time.Duration { return scale(left, share/float64(sz.ServeRounds)) }
	arrivals := func(round, phase int, rate, share float64) []arrival {
		rng := stats.NewRNG(seed*1_000_003 + uint64(round*10+phase))
		return schedule(rng, rate, perRound(share), len(o.inputs))
	}
	var (
		light, heavy             openResult
		pk                       peakResult
		reloads, observes        writeResult
		lightStages, heavyStages = stages{}, stages{}
	)
	for r := 0; r < sz.ServeRounds; r++ {
		runtime.GC()
		before := snapshot(st.reg)
		openLoop(ctx, arrivals(r, 1, sz.LightRPS, lightShare), send, o, tr.phase("light"), &light)
		mid := snapshot(st.reg)
		lightStages.add(before, mid)
		runtime.GC()
		mid = snapshot(st.reg)
		openLoop(ctx, arrivals(r, 2, sz.HeavyRPS, heavyShare), send, o, tr.phase("heavy"), &heavy)
		heavyStages.add(mid, snapshot(st.reg))
		runtime.GC()
		peak(ctx, st, o, served, sz, perRound(peakShare), &pk)
		runtime.GC()
		writes(served, sz, sz.ReloadSlice, perRound(reloadShare), "reload", reload, tr.phase("reload"), &reloads)
		runtime.GC()
		writes(served, sz, sz.ObserveSlice, perRound(observeShare), "observe", observe, tr.phase("observe"), &observes)
		if err := phase(fmt.Sprintf("serve%d", r+1)); err != nil {
			return nil, err
		}
	}

	for _, ph := range []struct {
		name string
		r    openResult
	}{{"light", light}, {"heavy", heavy}} {
		res.Attempted += ph.r.sent
		res.Failed += ph.r.failed
		if ph.r.mismatched > 0 {
			res.problem("%s: %d served responses differ from the embedded prediction", ph.name, ph.r.mismatched)
		}
		if lag := quantile(ph.r.lagMS, 0.99); lag > lagLimitMS {
			res.Flags = append(res.Flags, fmt.Sprintf("%s: generator lag p99 %.3f ms exceeds %.0f ms", ph.name, lag, lagLimitMS))
		}
	}
	if p99 := quantile(heavy.predictMS, 0.99); p99 > latencyLimitMS {
		res.Flags = append(res.Flags, fmt.Sprintf("heavy: p99 %.3f ms exceeds the %.0f ms latency limit", p99, latencyLimitMS))
	}
	res.Attempted += pk.requests + pk.failed + pk.mismatched + reloads.ops + observes.ops
	res.Failed += pk.failed + reloads.failed + observes.failed
	if pk.mismatched > 0 {
		res.problem("peak: %d served responses differ from the embedded prediction", pk.mismatched)
	}

	if tr == nil {
		res.add("setup_s", median(setupX)*refPlainFrame.Seconds(), "s")
		res.add("train_frame_x", fastCost(lr.train...), "plain_frames")
		res.add("exec_overhead_x", fastCost(lr.deploy...), "plain_frames")
		res.add("light.p50_ms", quantile(light.predictMS, 0.50), "ms")
		res.add("light.p90_ms", quantile(light.predictMS, 0.90), "ms")
		res.add("heavy.p50_ms", quantile(heavy.predictMS, 0.50), "ms")
		res.add("heavy.p90_ms", quantile(heavy.predictMS, 0.90), "ms")
		res.add("peak_req_cost_x", fastCost(pk.pairs), "plain_frames")
		res.add("reload_x", fastCost(reloads.pairs), "plain_frames")
		res.add("observe_x", fastCost(observes.pairs), "plain_frames")
		return res, nil
	}

	pr, err := probe(served.spec, served.final, lr.states[:min(len(lr.states), sz.ProbeStates)], sz.ProbeReps)
	if err != nil {
		return nil, err
	}
	res.mark("probe", t)
	if pr.mismatches > 0 {
		res.problem("probe: %d of %d plan/network outputs differ from Runtime.Predict", pr.mismatches, pr.checks)
	}
	trainTr, deployTr, heavyTr := tr.phase("train"), tr.phase("deploy"), tr.phase("heavy")
	ckTrain, ckDeploy := trainTr.get("core.checkpoint"), deployTr.get("core.checkpoint")
	res.add("core.nnrl_deploy_us", deployTr.meanUS("core.nnrl"), "us")
	res.add("core.nnrl_train_us", trainTr.meanUS("core.nnrl"), "us")
	res.add("core.extract_us", deployTr.meanUS("core.extract"), "us")
	res.add("core.writeback_us", deployTr.meanUS("core.writeback"), "us")
	res.add("core.restore_us", deployTr.meanUS("core.restore"), "us")
	res.add("core.checkpoint_us", us(ckTrain.Total+ckDeploy.Total)/float64(ckTrain.Count+ckDeploy.Count), "us")
	res.add("core.frames", float64(lr.trainFrames+lr.deployFrames), "count")
	res.add("core.episodes", float64(lr.episodes), "count")
	res.add("core.train_fps", float64(lr.trainFrames)/lr.trainTime.Seconds(), "1/s")
	res.add("core.deploy_frame_us_p50", quantile(lr.frameNS, 0.50)/1e3, "us")
	res.add("core.deploy_frame_us_p99", quantile(lr.frameNS, 0.99)/1e3, "us")
	res.add("core.exec_p99_x", plainQuantile(lr.frameNS, 0.99, lr.deploy...), "plain_frames")
	res.add("env.encode_us", deployTr.meanUS("env.encode"), "us")
	res.add("env.step_us", deployTr.meanUS("env.step"), "us")
	servedPairs := slices.Concat(lr.deploy[slices.Index(games, served)], lr.traced[slices.Index(games, served)])
	res.add("env.plain_frame_us", lowDecile(servedPairs, pair.plainFrame)/1e3, "us")
	res.add("rl.learn_frame_us", us(lr.learn.Total)/float64(max(lr.learn.Count, 1)), "us")
	res.add("rl.updates", float64(lr.updates), "count")
	res.add("rl.replay_bytes", float64(lr.replayBytes), "bytes")
	res.add("nn.forward_us", pr.forwardUS, "us")
	res.add("nn.plan_predict_us", pr.planUS, "us")
	res.add("nn.compile_us", pr.compileUS, "us")
	res.add("nn.op.gemm_us", pr.gemmUS, "us")
	res.add("nn.op.map_us", pr.mapUS, "us")
	res.add("nn.op.gemm_bwd_us", pr.gemmBwdUS, "us")
	res.add("nn.op.map_bwd_us", pr.mapBwdUS, "us")
	res.add("tensor.flops_per_frame", pr.flops, "flop")
	res.add("tensor.bytes_per_frame", pr.bytes, "bytes")
	lightMeans, heavyMeans := lightStages.means(), heavyStages.means()
	res.add("light.queue_wait_ms", lightMeans["queue_wait"], "ms")
	res.add("light.p99_ms", quantile(light.predictMS, 0.99), "ms")
	res.add("serve.queue_wait_ms", heavyMeans["queue_wait"], "ms")
	res.add("serve.batch_assemble_ms", heavyMeans["batch_assemble"], "ms")
	res.add("serve.batch_size_mean", heavyMeans["batch_size_mean"], "count")
	res.add("serve.batches", heavyMeans["batches"], "count")
	res.add("serve.engine_predict_us", heavyMeans["engine_predict"]*1e3, "us")
	res.add("serve.engine_row_us", heavyMeans["engine_row"]*1e3, "us")
	res.add("serve.response_encode_us", heavyMeans["response_encode"]*1e3, "us")
	res.add("client.predict_ms", heavyTr.meanUS("client.predict")/1e3, "ms")
	res.add("serve.peak_rps", float64(pk.requests)/pk.dur.Seconds(), "1/s")
	res.add("serve.reload_ms", median(reloads.opMS), "ms")
	res.add("serve.observe_ms", median(observes.opMS), "ms")
	res.add("heavy.p99_ms", quantile(heavy.predictMS, 0.99), "ms")
	res.add("gen.lag_ms_p99", quantile(heavy.lagMS, 0.99), "ms")
	res.add("gen.lag_ms_max", slices.Max(append([]float64{0}, heavy.lagMS...)), "ms")
	res.add("gen.sent", float64(heavy.sent), "count")
	res.add("obs.trace_overhead_x", fastCost(lr.traced...)/fastCost(lr.deploy...), "x")
	return res, nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSizes))
}

// run is aubench with its arguments and outputs, sizing each workload by
// sizeOf; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, sizeOf func(input) sizes) int {
	fs := flag.NewFlagSet("aubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dnn, cnn, or all for both")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 50, "seconds each workload measures, after set-up")
	traced := fs.Int("trace", 0, "1: run traced and report the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans as JSON to this file")
	jsonOut := fs.String("json", "", "append each run's result and host fingerprint to this JSON Lines file")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	var sel []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 || *traced < 0 || *traced > 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aubench: need -workload dnn|cnn|all and -trace 0|1, got %q, %d\n", *name, *traced)
		fs.Usage()
		return 2
	}
	obs.SetLogger(discardLog)

	var tr *trace
	if *traced == 1 {
		tr = newTrace()
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range sel {
		res, err := runWorkload(context.Background(), w, *seed, *seconds, sizeOf(w.in), tr)
		if err != nil {
			fmt.Fprintf(stderr, "aubench: %s: %v\n", w.name, err)
			return 1
		}
		for _, d := range res.Digests {
			fmt.Fprintf(stdout, "%s digest %s\n", w.name, d)
		}
		for _, m := range res.Metrics {
			fmt.Fprintf(stdout, "%s %s %.9g %s\n", w.name, m.Name, m.Value, m.Unit)
			key := m.Name
			if len(sel) > 1 {
				key = w.name + "/" + m.Name
			}
			out.Metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		fmt.Fprintf(stderr, "aubench: %s: seed %d: %s\n", w.name, *seed, strings.Join(res.Timeline, ", "))
		for _, f := range res.Flags {
			fmt.Fprintf(stderr, "aubench: %s: flagged: %s\n", w.name, f)
		}
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "aubench: %s: MISMATCH: %s\n", w.name, p)
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed + len(res.Problems)
		out.Correct = out.Correct && len(res.Problems) == 0
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, res); err != nil {
				fmt.Fprintf(stderr, "aubench: %v\n", err)
				return 1
			}
		}
	}
	if tr != nil && *traceOut != "" {
		if err := tr.writeFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "aubench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "aubench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// record is one line of a -json file.
type record struct {
	Workload  string                    `json:"workload"`
	Seed      uint64                    `json:"seed"`
	Traced    bool                      `json:"traced"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	Digests   []string                  `json:"digests"`
	Flags     []string                  `json:"flags,omitempty"`
	Problems  []string                  `json:"problems,omitempty"`
	Host      map[string]any            `json:"host"`
	Sizes     sizes                     `json:"sizes"`
}

func appendRecord(path string, res *result) error {
	rec := record{
		Workload: res.Workload, Seed: res.Seed, Traced: res.Traced,
		Correct: len(res.Problems) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]map[string]any{}, Digests: res.Digests,
		Flags: res.Flags, Problems: res.Problems, Host: fingerprint(res.Seed), Sizes: res.Sizes,
	}
	for _, m := range res.Metrics {
		rec.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint describes the host and build a result came from.
func fingerprint(seed uint64) map[string]any {
	h := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     tensor.KernelName(),
		"workers":    parallel.Workers(),
		"go":         runtime.Version(),
		"seed":       seed,
		"revision":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["revision"] = s.Value
			case "vcs.modified":
				h["modified"] = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// quantile returns the q-quantile of xs by the nearest-rank method (0
// for no samples); xs is not modified.
func quantile[T float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
