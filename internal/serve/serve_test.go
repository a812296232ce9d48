package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// opaqueLayer wraps a layer in a type the plan compiler does not know,
// keeping the parameter layout, so a network containing one loads a
// weights image but cannot be compiled.
type opaqueLayer struct{ nn.Layer }

// trainModel fits a small deterministic supervised model and returns
// its serving spec, SaveModel image, and a Test-mode reference runtime
// for in-process ground-truth predictions.
func trainModel(t testing.TB, seed uint64) (core.ModelSpec, []byte, *core.Runtime) {
	t.Helper()
	spec := core.ModelSpec{Name: "m", Algo: core.AdamOpt, Hidden: []int{6}, LR: 0.01}
	tr := core.NewRuntimeWith(core.Train, core.WithSeed(seed), core.WithMetrics(nil))
	if err := tr.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed + 1)
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := tr.RecordExample("m", x, []float64{x[0] - x[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FitCtx(context.Background(), "m", 5, 16); err != nil {
		t.Fatal(err)
	}
	data, err := tr.SaveModel("m")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewRuntimeWith(core.Test, core.WithMetrics(nil))
	ref.LoadModel("m", data)
	if err := ref.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	return spec, data, ref
}

// newTestServer installs the model on a batching server behind an
// httptest listener and returns the server and its base URL.
func newTestServer(t testing.TB, cfg Config, spec core.ModelSpec, data []byte) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	if _, err := srv.Install("m", spec, data); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts.URL
}

// TestBatchedEquivalence is the core serving guarantee: predictions
// through the batching server are bit-identical to the in-process
// runtime, at every concurrency width — batch composition must never
// leak into results. Run under -race in CI.
func TestBatchedEquivalence(t *testing.T) {
	spec, data, ref := trainModel(t, 21)
	_, url := newTestServer(t, Config{MaxBatch: 8}, spec, data)

	const perClient = 25
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, width)
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cli := NewClient(url)
					rng := stats.NewRNG(uint64(1000 + w))
					for i := 0; i < perClient; i++ {
						in := []float64{rng.Float64(), rng.Float64()}
						want, err := ref.PredictCtx(context.Background(), "m", in)
						if err != nil {
							errs <- err
							return
						}
						got, err := cli.PredictCtx(context.Background(), "m", in)
						if err != nil {
							errs <- err
							return
						}
						if len(got) != len(want) || got[0] != want[0] {
							errs <- fmt.Errorf("width %d: batched %v != in-process %v for %v", width, got, want, in)
							return
						}
					}
					errs <- nil
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBinaryJSONParity pins the two predict encodings to each other.
func TestBinaryJSONParity(t *testing.T) {
	spec, data, _ := trainModel(t, 22)
	_, url := newTestServer(t, Config{}, spec, data)

	in := []float64{0.25, 0.75}
	a, err := NewClient(url).Predict("m", in)
	if err != nil {
		t.Fatal(err)
	}
	b := predictJSON(t, url, "m", in)
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("binary %v != json %v", a, b)
	}
}

// predictJSON posts one PredictRequest to the JSON predict endpoint,
// the encoding curl and check_serve.sh use.
func predictJSON(t testing.TB, url, model string, in []float64) []float64 {
	t.Helper()
	body, err := json.Marshal(PredictRequest{Model: model, Input: in})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON predict answered HTTP %d", resp.StatusCode)
	}
	var out PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Output
}

// TestBatchWhenBusy pins the batching semantics of DESIGN.md §5d: the
// collector dispatches whatever is already queued, in batches of up to
// maxBatch, and a lone request on an idle batcher goes out alone —
// nothing ever waits for company.
func TestBatchWhenBusy(t *testing.T) {
	spec, data, _ := trainModel(t, 23)
	eng, err := buildEngine("m", spec, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 4
	for _, k := range []int{3, 10} {
		t.Run(fmt.Sprintf("queued%d", k), func(t *testing.T) {
			m := &servedModel{name: "m"}
			m.eng.Store(eng)
			met := newMetricsSet(obs.NewRegistry())
			// No collector goroutine yet: all k requests queue first.
			b := &batcher{
				model: m, queue: make(chan *batchCall, k),
				maxBatch: maxBatch, met: met, stop: make(chan struct{}),
			}
			submit := func() {
				if _, err := b.submit(context.Background(), []float64{0.1, 0.2}); err != nil {
					t.Error(err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); submit() }()
			}
			for len(b.queue) < k {
				time.Sleep(time.Millisecond)
			}
			b.stopped.Add(1)
			go b.loop()
			defer b.close()
			wg.Wait()
			want := (k + maxBatch - 1) / maxBatch
			if got := met.batches.Value(); got != uint64(want) {
				t.Errorf("%d queued requests dispatched as %d batches, want %d", k, got, want)
			}
			if got := met.batchSize.Sum(); got != float64(k) {
				t.Errorf("batch sizes sum to %v, want %d", got, k)
			}

			// A lone request on the idle, running batcher is a batch of one.
			submit()
			if got := met.batches.Value(); got != uint64(want+1) {
				t.Errorf("lone request: %d batches in total, want %d", got, want+1)
			}
			if got := met.batchSize.Sum(); got != float64(k+1) {
				t.Errorf("lone request: batch sizes sum to %v, want %d", got, k+1)
			}
		})
	}
}

// TestHotReloadKeepsServing swaps model versions while clients hammer
// predict: no request may fail, and every answer must match one of the
// two snapshots exactly — never a blend.
func TestHotReloadKeepsServing(t *testing.T) {
	spec, data1, ref1 := trainModel(t, 24)
	_, data2, ref2 := trainModel(t, 99)
	srv, url := newTestServer(t, Config{MaxBatch: 8}, spec, data1)

	in := []float64{0.6, 0.3}
	want1, err := ref1.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := ref2.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	if want1[0] == want2[0] {
		t.Fatal("test needs distinguishable snapshots")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(url)
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := cli.Predict("m", in)
				if err != nil {
					t.Errorf("predict during reload: %v", err)
					return
				}
				if out[0] != want1[0] && out[0] != want2[0] {
					t.Errorf("blended output %v; want %v or %v", out, want1, want2)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		d := data1
		if i%2 == 0 {
			d = data2
		}
		if _, err := srv.Install("m", spec, d); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if v := srv.Models()[0].Version; v != 11 {
		t.Errorf("version after 10 reloads = %d, want 11", v)
	}
}

// TestReloadEndpoint drives the HTTP reload path: raw weights bump the
// version, unknown models 404, garbage is a classed 400.
func TestReloadEndpoint(t *testing.T) {
	spec, data1, _ := trainModel(t, 25)
	_, data2, ref2 := trainModel(t, 26)
	_, url := newTestServer(t, Config{}, spec, data1)
	cli := NewClient(url)

	v, err := cli.Reload(context.Background(), "m", data2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("reload version = %d, want 2", v)
	}
	in := []float64{0.2, 0.9}
	want, err := ref2.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.Predict("m", in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("post-reload predict %v, want snapshot-2 output %v", got, want)
	}

	if _, err := cli.Reload(context.Background(), "ghost", data2); !errors.Is(err, auerr.ErrUnknownModel) {
		t.Errorf("reload of unknown model: %v, want ErrUnknownModel", err)
	}
	if _, err := cli.Reload(context.Background(), "m", []byte("garbage")); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("reload with garbage: %v, want ErrSpecInvalid", err)
	}
}

// TestClientQuerierFlow exercises the primitive loop through a Client:
// extract → serialize → NN → write-back, and the RL act path, against
// the in-process reference.
func TestClientQuerierFlow(t *testing.T) {
	spec, data, ref := trainModel(t, 27)
	_, url := newTestServer(t, Config{}, spec, data)
	cli := NewClient(url)
	ctx := context.Background()

	cli.Extract("X", 0.4)
	if err := cli.ExtractCtx(ctx, "Y", 0.7); err != nil {
		t.Fatal(err)
	}
	key, err := cli.SerializeCtx(ctx, "X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.NNCtx(ctx, "m", key, "OUT"); err != nil {
		t.Fatal(err)
	}
	var out [1]float64
	if _, err := cli.WriteBackCtx(ctx, "OUT", out[:]); err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictCtx(ctx, "m", []float64{0.4, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != want[0] {
		t.Errorf("client NN flow output %v, want %v", out[0], want[0])
	}

	// NN with a consumed (empty) input is the usual typed error.
	if err := cli.NNCtx(ctx, "m", key, "OUT"); !errors.Is(err, auerr.ErrMissingInput) {
		t.Errorf("NN on consumed input: %v, want ErrMissingInput", err)
	}

	// The RL flow binds the greedy argmax of the model output.
	cli.Extract("S1", 0.9)
	cli.Extract("S2", 0.2)
	skey, _ := cli.SerializeCtx(ctx, "S1", "S2")
	if err := cli.NNRLCtx(ctx, "m", skey, 0, false, "ACT"); err != nil {
		t.Fatal(err)
	}
	action, err := cli.WriteBackActionCtx(ctx, "ACT")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ref.PredictCtx(ctx, "m", []float64{0.9, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if action != stats.ArgMax(q) {
		t.Errorf("remote action %d, want argmax %d of %v", action, stats.ArgMax(q), q)
	}

	// Typed errors round-trip the wire.
	if _, err := cli.Predict("ghost", []float64{1, 2}); !errors.Is(err, auerr.ErrUnknownModel) {
		t.Errorf("remote unknown model: %v, want ErrUnknownModel", err)
	}
	if _, err := cli.Predict("m", []float64{1}); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("remote wrong-size input: %v, want ErrSpecInvalid", err)
	}
}

// TestClientCancellation pins the context contract across the network:
// a canceled caller gets the same typed ErrCanceled as in-process.
func TestClientCancellation(t *testing.T) {
	spec, data, _ := trainModel(t, 28)
	srv := NewServer(Config{})
	if _, err := srv.Install("m", spec, data); err != nil {
		t.Fatal(err)
	}
	// The server holds every request until its caller gives up, then
	// serves it. The body is read first: net/http only notices a
	// closed connection, and ends the request context, once the body
	// is consumed.
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		<-r.Context().Done()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	cli := NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.PredictCtx(ctx, "m", []float64{0.1, 0.2}); !errors.Is(err, auerr.ErrCanceled) {
		t.Errorf("deadline while the server holds the request: %v, want ErrCanceled", err)
	}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := cli.ExtractCtx(canceled, "X", 1); !errors.Is(err, auerr.ErrCanceled) {
		t.Errorf("local primitive with dead ctx: %v, want ErrCanceled", err)
	}
}

// TestClientRetryContract pins WithRetry across every remote call: a
// shed (429) first attempt is retried and the second attempt's answer
// returned, for predict, act, observe, models and reload alike; a 400
// is not retried; and a context canceled during the loop stops it.
func TestClientRetryContract(t *testing.T) {
	var (
		mu       sync.Mutex
		attempts = map[string]int{}
		cancel   context.CancelFunc
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts[r.URL.Path]++
		n, stop := attempts[r.URL.Path], cancel
		mu.Unlock()
		switch {
		case r.URL.Path == "/bad":
			WriteError(w, auerr.E(auerr.ErrSpecInvalid, "bad input"))
			return
		case r.URL.Path == "/cancel":
			stop()
			WriteError(w, auerr.E(auerr.ErrOverloaded, "shed"))
			return
		case n == 1:
			WriteError(w, auerr.E(auerr.ErrOverloaded, "shed"))
			return
		}
		switch r.URL.Path {
		case "/v1/predict":
			_, _ = w.Write(appendVector(nil, []float64{0.5, -1}))
		case "/v1/act":
			WriteJSON(w, ActResponse{Action: 2})
		case "/v1/observe":
			WriteJSON(w, ObserveResponse{Model: "m", Samples: 1, Healthy: true})
		case "/v1/models":
			WriteJSON(w, []ModelInfo{{Name: "m", Version: 3}})
		case "/models/m/reload":
			WriteJSON(w, ReloadResponse{Model: "m", Version: 4})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	count := func(path string) int {
		mu.Lock()
		defer mu.Unlock()
		return attempts[path]
	}
	cli := NewClient(ts.URL, WithRetry(RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond}))
	ctx := context.Background()

	if out, err := cli.PredictCtx(ctx, "m", []float64{1}); err != nil || len(out) != 2 || out[0] != 0.5 {
		t.Errorf("predict = %v, %v", out, err)
	}
	cli.Extract("s", 1, 2)
	if err := cli.NNRLCtx(ctx, "m", "s", 0, false, "a"); err != nil {
		t.Errorf("act: %v", err)
	} else if a, _ := cli.DB().Get("a"); len(a) != 1 || a[0] != 2 {
		t.Errorf("act wrote back %v, want [2]", a)
	}
	if st, err := cli.ObserveCtx(ctx, "m", []float64{1}, []float64{1}); err != nil || st.Samples != 1 {
		t.Errorf("observe = %+v, %v", st, err)
	}
	if ms, err := cli.Models(ctx); err != nil || len(ms) != 1 || ms[0].Version != 3 {
		t.Errorf("models = %v, %v", ms, err)
	}
	if v, err := cli.Reload(ctx, "m", nil); err != nil || v != 4 {
		t.Errorf("reload = %d, %v", v, err)
	}
	for _, path := range []string{"/v1/predict", "/v1/act", "/v1/observe", "/v1/models", "/models/m/reload"} {
		if n := count(path); n != 2 {
			t.Errorf("%s: %d attempts, want 2 (one shed, one served)", path, n)
		}
	}

	if err := cli.postJSON(ctx, "/bad", struct{}{}, &struct{}{}); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("400: %v, want ErrSpecInvalid", err)
	}
	if n := count("/bad"); n != 1 {
		t.Errorf("400: %d attempts, want 1", n)
	}

	cctx, cancelCtx := context.WithCancel(ctx)
	defer cancelCtx()
	mu.Lock()
	cancel = cancelCtx
	mu.Unlock()
	slow := NewClient(ts.URL, WithRetry(RetryPolicy{Attempts: 3, Base: time.Minute, Max: time.Minute}))
	if err := slow.postJSON(cctx, "/cancel", struct{}{}, &struct{}{}); !errors.Is(err, auerr.ErrCanceled) {
		t.Errorf("canceled mid-loop: %v, want ErrCanceled", err)
	}
	if n := count("/cancel"); n != 1 {
		t.Errorf("canceled mid-loop: %d attempts, want 1", n)
	}
}

// TestSubmitBackpressure pins the load-shedding contract at the batcher
// layer: a full queue rejects immediately with ErrOverloaded, and the
// HTTP mapping for that class is 429.
func TestSubmitBackpressure(t *testing.T) {
	spec, data, _ := trainModel(t, 29)
	eng, err := buildEngine("m", spec, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &servedModel{name: "m"}
	m.eng.Store(eng)
	// No collector goroutine: the queue genuinely fills.
	b := &batcher{
		model: m, queue: make(chan *batchCall, 1), maxBatch: 4,
		met: newMetricsSet(nil), stop: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.submit(ctx, []float64{1, 2}); !errors.Is(err, auerr.ErrCanceled) {
			t.Errorf("queued call after cancel: %v, want ErrCanceled", err)
		}
	}()
	// Wait until the first call occupies the queue slot.
	for len(b.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := b.submit(context.Background(), []float64{3, 4}); !errors.Is(err, auerr.ErrOverloaded) {
		t.Fatalf("submit on full queue: %v, want ErrOverloaded", err)
	}
	cancel()
	wg.Wait()

	if code := statusFor(auerr.E(auerr.ErrOverloaded, "x")); code != 429 {
		t.Errorf("statusFor(ErrOverloaded) = %d, want 429", code)
	}
}

// TestSnapshotRoundTrip pins the AUSN container format and its corrupt
// handling.
func TestSnapshotRoundTrip(t *testing.T) {
	spec, data, _ := trainModel(t, 30)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, []SnapshotModel{{Name: "m", Spec: spec, Data: data}}); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	models, err := ReadSnapshot(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "m" || !bytes.Equal(models[0].Data, data) {
		t.Fatalf("round trip mangled the snapshot: %+v", models)
	}
	if models[0].Spec.Algo != spec.Algo || len(models[0].Spec.Hidden) != len(spec.Hidden) {
		t.Fatalf("round trip mangled the spec: %+v", models[0].Spec)
	}

	srv := NewServer(Config{})
	defer srv.Close()
	if n, err := srv.LoadSnapshot(bytes.NewReader(image)); err != nil || n != 1 {
		t.Fatalf("LoadSnapshot = %d, %v", n, err)
	}

	for name, mut := range map[string][]byte{
		"bad magic": append([]byte("NOPE"), image[4:]...),
		"truncated": image[:len(image)-3],
	} {
		if _, err := ReadSnapshot(bytes.NewReader(mut)); !errors.Is(err, auerr.ErrCorruptStore) {
			t.Errorf("%s: %v, want ErrCorruptStore", name, err)
		}
	}
}

// TestHotReloadInstallsPackedEngine pins the pack-at-install contract of
// the two-representation architecture: every engine — initial install
// and hot reload alike — has its serving plan compiled (weights packed
// into the active kernel layout) before the atomic swap publishes it,
// so no request ever pays a first-call packing or compilation spike.
func TestHotReloadInstallsPackedEngine(t *testing.T) {
	spec, data1, _ := trainModel(t, 31)
	_, data2, ref2 := trainModel(t, 32)
	srv, _ := newTestServer(t, Config{MaxBatch: 4}, spec, data1)

	srv.mu.RLock()
	sm := srv.models["m"]
	srv.mu.RUnlock()
	first := sm.eng.Load()

	// Install compiles before the swap: a network the plan compiler
	// rejects fails the install and leaves the serving engine in place.
	opaque := spec
	opaque.Builder = func(in, out int, rng *stats.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewDense(in, 6, rng), opaqueLayer{nn.NewReLU()}, nn.NewDense(6, out, rng))
	}
	if _, err := srv.Install("m", opaque, data2); !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Fatalf("install of an uncompilable network: %v, want ErrSpecInvalid", err)
	}
	if sm.eng.Load() != first {
		t.Fatal("a failed install swapped the engine")
	}

	if _, err := srv.Install("m", spec, data2); err != nil {
		t.Fatal(err)
	}
	eng := sm.eng.Load()
	if eng == first {
		t.Fatal("reload did not swap the engine")
	}

	// The packed engine must still serve the new snapshot bit-exactly.
	in := []float64{0.6, 0.3}
	want, err := ref2.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got := [][]float64{make([]float64, eng.plan.OutSize())}
	eng.predictBatchInto([][]float64{in}, got)
	if len(got) != 1 || len(got[0]) != len(want) {
		t.Fatalf("predictBatchInto shape %v", got)
	}
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("packed engine output %v, want %v", got[0], want)
		}
	}
}

// TestEngineShardsMapToInstances pins predictBatchInto's shard-to-instance
// mapping on a 1×16×16 DeepMind CNN: batches of 1, 3 and 32 rows, on
// engines installed at widths 1, 2 and 8 and on engines whose width
// changed after the install, each match a Test-mode PredictCtx bit for
// bit.
func TestEngineShardsMapToInstances(t *testing.T) {
	spec := core.ModelSpec{Name: "c", Type: core.CNN, Algo: core.AdamOpt, InputShape: []int{1, 16, 16}}
	tr := core.NewRuntimeWith(core.Train, core.WithSeed(41), core.WithMetrics(nil))
	if err := tr.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	rows := make([][]float64, 32)
	for i := range rows {
		rows[i] = make([]float64, 16*16)
		for j := range rows[i] {
			rows[i][j] = rng.Range(-1, 1)
		}
	}
	if err := tr.RecordExample("c", rows[0], []float64{0, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	data, err := tr.SaveModel("c")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewRuntimeWith(core.Test, core.WithMetrics(nil))
	ref.LoadModel("c", data)
	if err := ref.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(rows))
	for i, in := range rows {
		if want[i], err = ref.PredictCtx(context.Background(), "c", in); err != nil {
			t.Fatal(err)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []struct{ install, run int }{{1, 1}, {2, 2}, {8, 8}, {2, 8}, {8, 1}} {
		runtime.GOMAXPROCS(w.install)
		eng, err := buildEngine("c", spec, data, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.insts) != w.install {
			t.Fatalf("install at width %d built %d instances", w.install, len(eng.insts))
		}
		runtime.GOMAXPROCS(w.run)
		for _, n := range []int{1, 3, 32} {
			outs := make([][]float64, n)
			for i := range outs {
				outs[i] = make([]float64, eng.plan.OutSize())
			}
			eng.predictBatchInto(rows[:n], outs)
			for i := range outs {
				for j := range want[i] {
					if math.Float64bits(outs[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("installed at width %d, run at %d, batch %d: row %d = %v, want %v",
							w.install, w.run, n, i, outs[i], want[i])
					}
				}
			}
		}
	}
}
