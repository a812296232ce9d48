package main

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/serve"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// servedGame names the subject whose trained model every workload serves.
const servedGame = "Mario"

// inproc is an http.RoundTripper that hands each request straight to the
// server's handler. With no sockets, every request the generator has
// outstanding is in flight at the batcher; loopback TCP with at most
// nproc connections would cap that at two, and no batch could form.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// stack is one in-process serving stack: a default-config server with
// the served model installed, and a client wired to its handler.
type stack struct {
	srv *serve.Server
	cli *serve.Client
	reg *obs.Registry // the server's private registry; nil untraced
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// newStack builds a server (MaxBatch 32, MaxDelay 2 ms, QueueDepth 256)
// and installs img under the served model's name. Traced runs give the
// server a private registry, so its stage histograms can be read back.
func newStack(spec core.ModelSpec, img []byte, traced bool) (*stack, error) {
	st := &stack{}
	if traced {
		st.reg = obs.NewRegistry()
	}
	st.srv = serve.NewServer(serve.Config{Registry: st.reg, Logger: discardLog})
	if _, err := st.srv.Install(servedGame, spec, img); err != nil {
		return nil, err
	}
	st.cli = serve.NewClient("http://aubench", serve.WithHTTPClient(&http.Client{Transport: inproc{st.srv.Handler()}}))
	return st, nil
}

// oracle holds the request inputs and the embedded Runtime.Predict
// output of each under both weight images the server may be serving.
type oracle struct {
	inputs [][]float64
	want   [2][][]float64
}

func newOracle(spec core.ModelSpec, images [2][]byte, inputs [][]float64) (*oracle, error) {
	o := &oracle{inputs: inputs}
	for k, img := range images {
		rt := core.NewRuntime(core.Test, 0)
		rt.LoadModel(spec.Name, img)
		if err := rt.Config(spec); err != nil {
			return nil, err
		}
		for _, in := range inputs {
			out, err := rt.Predict(spec.Name, in)
			if err != nil {
				return nil, err
			}
			o.want[k] = append(o.want[k], out)
		}
	}
	return o, nil
}

// matches reports whether out is bit-identical to the embedded output of
// input i under either image.
func (o *oracle) matches(i int, out []float64) bool {
	return sameBits(out, o.want[0][i]) || sameBits(out, o.want[1][i])
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// arrival is one scheduled open-loop predict.
type arrival struct {
	at    time.Duration // due time, from the phase start
	input int           // index into the oracle's inputs
}

// schedule draws Poisson arrivals at rate per second over dur. The
// schedule depends only on the rng's seed.
func schedule(rng *stats.RNG, rate float64, dur time.Duration, inputs int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, input: rng.Intn(inputs)})
	}
}

// openResult is one open-loop phase's outcome. Latencies run from each
// request's due time, so a stall delays every request due during it. A
// request that failed or answered wrongly has latency +Inf: it misses
// any latency limit and can only raise a quantile.
type openResult struct {
	predictMS          []float64
	lagMS              []float64 // how late the generator sent each request
	sent               int
	failed, mismatched int
}

// sender issues one predict; the default is the stack's client.
type sender func(ctx context.Context, a arrival) ([]float64, error)

// openLoop sends the arrivals on schedule, each from its own goroutine,
// never waiting for earlier replies. It returns once every request has
// completed, having added the outcome to res.
func openLoop(ctx context.Context, arr []arrival, send sender, o *oracle, tr *tracer, res *openResult) {
	var (
		reqs               sync.WaitGroup
		failed, mismatched atomic.Int64
	)
	lat := make([]float64, len(arr))
	lag := make([]float64, len(arr))
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sentAt := time.Now()
		lag[i] = ms(sentAt.Sub(due))
		reqs.Add(1)
		go func(i int, a arrival, due, sentAt time.Time) {
			defer reqs.Done()
			root := tr.open("request", due)
			tr.child(&root, "gen.wait", due, sentAt)
			out, err := send(ctx, a)
			end := time.Now()
			tr.child(&root, "client.predict", sentAt, end)
			tr.close(&root, end)
			lat[i] = math.Inf(1)
			switch {
			case err != nil:
				failed.Add(1)
			case !o.matches(a.input, out):
				mismatched.Add(1)
			default:
				lat[i] = ms(end.Sub(due))
			}
		}(i, a, due, sentAt)
	}
	reqs.Wait()
	res.predictMS = append(res.predictMS, lat...)
	res.lagMS = append(res.lagMS, lag...)
	res.sent += len(arr)
	res.failed += int(failed.Load())
	res.mismatched += int(mismatched.Load())
}

// clientSender sends predicts through the stack's client.
func (st *stack) clientSender(o *oracle) sender {
	return func(ctx context.Context, a arrival) ([]float64, error) {
		return st.cli.PredictCtx(ctx, servedGame, o.inputs[a.input])
	}
}

// peakResult is the saturated closed-loop phase's outcome.
type peakResult struct {
	pairs              []pair
	requests           int // answered correctly
	dur                time.Duration
	failed, mismatched int
}

// peak runs closed-loop slices of sz.PeakSlice with sz.PeakInFlight
// requests outstanding (each worker sends its next request when the
// previous returns), each followed by sz.PeakPlain frames of the served
// game's plain loop, until budget has passed (and at least
// sz.MinPeakSlices slices), adding to res. Only correct answers count as
// served, so shedding requests cannot make a request look cheaper.
func peak(ctx context.Context, st *stack, o *oracle, g *game, sz sizes, budget time.Duration, res *peakResult) {
	start := time.Now()
	for slice := 0; slice < sz.MinPeakSlices || time.Since(start) < budget; slice++ {
		var done, failed, mism atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		deadline := t0.Add(sz.PeakSlice)
		for w := 0; w < sz.PeakInFlight; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; time.Now().Before(deadline); k++ {
					i := (w*131 + k*17 + slice) % len(o.inputs)
					out, err := st.cli.PredictCtx(ctx, servedGame, o.inputs[i])
					switch {
					case err != nil:
						failed.Add(1)
					case !o.matches(i, out):
						mism.Add(1)
					default:
						done.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		p := pair{work: time.Since(t0), units: int(done.Load()), plainFrames: sz.PeakPlain}
		p.plain = quietPlain(g, sz.PeakPlain)
		if p.units > 0 {
			res.pairs = append(res.pairs, p)
		}
		res.requests += p.units
		res.dur += p.work
		res.failed += int(failed.Load())
		res.mismatched += int(mism.Load())
	}
}

// quietPlain times n plain frames after a full collection, so the
// collection a serving slice started does not run alongside them.
func quietPlain(g *game, n int) time.Duration {
	runtime.GC()
	return g.plainSlice(n)
}

// writeResult is a quiet write phase's outcome.
type writeResult struct {
	pairs       []pair
	opMS        []float64 // round trip of each operation that succeeded
	ops, failed int
}

// writes runs op (the kind of write named name) back to back with no
// other load, in slices of n operations each followed by sz.WritePlain
// frames of the served game's plain loop, until budget has passed (and
// at least sz.MinWrites operations), adding to res. op(k) is the phase's
// k-th operation.
func writes(g *game, sz sizes, n int, budget time.Duration, name string, op func(k int) error, tr *tracer, res *writeResult) {
	start := time.Now()
	for k := 0; k < sz.MinWrites || time.Since(start) < budget; {
		p := pair{plainFrames: sz.WritePlain}
		for i := 0; i < n; i++ {
			root := tr.open(name, tr.now())
			t0 := time.Now()
			err := op(k)
			d := time.Since(t0)
			tr.child(&root, "client."+name, t0, t0.Add(d))
			tr.close(&root, t0.Add(d))
			k++
			res.ops++
			if err != nil {
				res.failed++
				continue
			}
			p.work += d
			p.units++
			res.opMS = append(res.opMS, ms(d))
		}
		p.plain = quietPlain(g, sz.WritePlain)
		if p.units > 0 {
			res.pairs = append(res.pairs, p)
		}
	}
}

// serverStages are the server's per-stage histograms, read back from its
// private registry.
var serverStages = []string{"queue_wait", "batch_assemble", "engine_predict", "response_encode"}

// histograms returns the server's stage histograms and, under the key
// "batch_size", its batch-size histogram.
func histograms(reg *obs.Registry) map[string]*obs.Histogram {
	hs := map[string]*obs.Histogram{
		"batch_size": reg.Histogram("autonomizer_serve_batch_size", "", obs.ExpBuckets(1, 2, 8), nil),
	}
	for _, s := range serverStages {
		hs[s] = reg.Histogram("autonomizer_serve_stage_duration_seconds", "", nil, obs.Labels{"stage": s})
	}
	return hs
}

// stages accumulates the server's histogram counts and sums over the
// rounds of one phase.
type stages map[string][2]float64

func snapshot(reg *obs.Registry) stages {
	m := stages{}
	for k, h := range histograms(reg) {
		m[k] = [2]float64{float64(h.Count()), h.Sum()}
	}
	return m
}

// add adds what the histograms gained between two snapshots.
func (s stages) add(from, to stages) {
	for k := range to {
		s[k] = [2]float64{s[k][0] + to[k][0] - from[k][0], s[k][1] + to[k][1] - from[k][1]}
	}
}

// means reports each stage's mean in milliseconds, the batches
// dispatched, the mean batch size, and the engine time per row in
// milliseconds.
func (s stages) means() map[string]float64 {
	out := map[string]float64{}
	mean := func(k string) float64 {
		if s[k][0] <= 0 {
			return 0
		}
		return s[k][1] / s[k][0]
	}
	for _, st := range serverStages {
		out[st] = mean(st) * 1e3
	}
	out["batches"] = s["batch_size"][0]
	out["batch_size_mean"] = mean("batch_size")
	if rows := s["batch_size"][1]; rows > 0 {
		out["engine_row"] = s["engine_predict"][1] / rows * 1e3
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
