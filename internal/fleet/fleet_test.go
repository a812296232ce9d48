package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/serve"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// trainModel fits a small deterministic supervised model and returns
// its serving spec, SaveModel image, and a Test-mode reference runtime
// for in-process ground-truth predictions (the same recipe as the
// serve package's tests — fixed seeds, so every engine built from the
// image answers bit-identically).
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

// backendFleet starts n auserve-equivalent backends (each a batching
// serve.Server behind an httptest listener) and returns their URLs and
// a kill function per backend.
func backendFleet(t testing.TB, n int, install func(*serve.Server)) (urls []string, kill []func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Config{Registry: nil})
		if install != nil {
			install(srv)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
		kill = append(kill, func() { ts.CloseClientConnections(); ts.Close() })
	}
	return urls, kill
}

func input(i int) []float64 {
	return []float64{float64(i%7) / 7, float64(i%11) / 11}
}

// installThrough POSTs a one-model snapshot to a router, which ships it
// to the model's ring owner.
func installThrough(t testing.TB, routerURL string, spec core.ModelSpec, data []byte) {
	t.Helper()
	var img bytes.Buffer
	if err := serve.WriteSnapshot(&img, []serve.SnapshotModel{{Name: "m", Spec: spec, Data: data}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot install answered HTTP %d", resp.StatusCode)
	}
}

// TestFleetEquivalence is the fleet's bit-identity guarantee: a client
// of a 3-backend router, a single-server client and the embedded
// runtime produce byte-for-byte identical predictions, at client
// concurrency widths 1, 4 and 16. Run under -race in CI.
func TestFleetEquivalence(t *testing.T) {
	spec, data, ref := trainModel(t, 7)
	_, routerURL, _, _ := routerFleet(t, 3)
	installThrough(t, routerURL, spec, data)
	single, _ := backendFleet(t, 1, func(s *serve.Server) {
		if _, err := s.Install("m", spec, data); err != nil {
			t.Fatal(err)
		}
	})

	// Ground truth from the embedded runtime, computed serially.
	const n = 48
	want := make([][]float64, n)
	for i := range want {
		out, err := ref.PredictCtx(context.Background(), "m", input(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	clients := map[string]*serve.Client{
		"fleet3": serve.NewClient(routerURL),
		"single": serve.NewClient(single[0]),
	}
	for _, width := range []int{1, 4, 16} {
		for name, c := range clients {
			t.Run(fmt.Sprintf("%s/width=%d", name, width), func(t *testing.T) {
				var wg sync.WaitGroup
				errs := make(chan error, n)
				for w := 0; w < width; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < n; i += width {
							out, err := c.PredictCtx(context.Background(), "m", input(i))
							if err != nil {
								errs <- err
								return
							}
							if len(out) != len(want[i]) {
								errs <- fmt.Errorf("request %d: output size %d, want %d", i, len(out), len(want[i]))
								return
							}
							for j := range out {
								if math.Float64bits(out[j]) != math.Float64bits(want[i][j]) {
									errs <- fmt.Errorf("request %d: out[%d] = %x, want %x (not bit-identical)",
										i, j, math.Float64bits(out[j]), math.Float64bits(want[i][j]))
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			})
		}
	}
}

// routerFleet stands up n empty backends behind a Router (fast health
// probes) and returns the router, its base URL, backend URLs and kill
// functions.
func routerFleet(t testing.TB, n int) (*Router, string, []string, []func()) {
	t.Helper()
	urls, kill := backendFleet(t, n, nil)
	router := NewRouter(Config{
		Backends:       urls,
		HealthInterval: 25 * time.Millisecond,
	})
	router.Start()
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(func() { ts.Close(); router.Close() })
	return router, ts.URL, urls, kill
}

// TestRouterInstallAndForward: a snapshot POSTed to the router lands
// on exactly the ring-assigned backend, predictions through the router
// are bit-identical to embedded (both JSON and binary paths), the
// fleet catalog aggregates, and a router-level unknown model keeps the
// typed-error contract.
func TestRouterInstallAndForward(t *testing.T) {
	spec, data, ref := trainModel(t, 7)
	router, routerURL, urls, _ := routerFleet(t, 3)

	// Install through the router: one POST /v1/snapshot, shipped onward.
	var img bytes.Buffer
	if err := serve.WriteSnapshot(&img, []serve.SnapshotModel{{Name: "m", Spec: spec, Data: data}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot install answered HTTP %d", resp.StatusCode)
	}

	// Placement: the model lives on exactly the ring owner.
	ring := NewRing(0)
	for _, u := range urls {
		ring.Add(u)
	}
	owner, _ := ring.Owner("m")
	for _, u := range urls {
		var infos []serve.ModelInfo
		r, err := http.Get(u + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if u == owner && len(infos) != 1 {
			t.Fatalf("owner %s serves %d models, want 1", u, len(infos))
		}
		if u != owner && len(infos) != 0 {
			t.Fatalf("non-owner %s serves %d models, want 0", u, len(infos))
		}
	}

	// The router's surface is a drop-in auserve: both predict encodings,
	// bit-identical to the embedded runtime.
	binCli := serve.NewClient(routerURL)
	for name, predict := range map[string]func(in []float64) ([]float64, error){
		"binary": func(in []float64) ([]float64, error) {
			return binCli.PredictCtx(context.Background(), "m", in)
		},
		"json": func(in []float64) ([]float64, error) {
			return predictJSON(routerURL, "m", in)
		},
	} {
		for i := 0; i < 8; i++ {
			want, err := ref.PredictCtx(context.Background(), "m", input(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := predict(input(i))
			if err != nil {
				t.Fatalf("%s predict through router: %v", name, err)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s request %d not bit-identical: %v vs %v", name, i, got, want)
				}
			}
		}
	}

	// Catalog aggregation and typed-error pass-through.
	infos, err := serve.NewClient(routerURL).Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "m" {
		t.Fatalf("fleet catalog = %+v, want [m]", infos)
	}
	if _, err := serve.NewClient(routerURL).PredictCtx(context.Background(), "nope", []float64{1}); !errors.Is(err, auerr.ErrUnknownModel) {
		t.Fatalf("unknown model through router = %v, want ErrUnknownModel", err)
	}

	// Fleet posture names every backend and records the placement.
	st := router.Status(context.Background())
	if !st.Ready || st.LiveBackends != 3 || st.ModelsInstalled != 1 {
		t.Fatalf("Status = ready=%v live=%d installed=%d", st.Ready, st.LiveBackends, st.ModelsInstalled)
	}
	if st.Placements["m"] != owner {
		t.Fatalf("placement of m = %q, want %q", st.Placements["m"], owner)
	}
}

// predictJSON posts one PredictRequest to the JSON predict endpoint,
// the encoding curl and check_serve.sh use.
func predictJSON(url, model string, in []float64) ([]float64, error) {
	body, err := json.Marshal(serve.PredictRequest{Model: model, Input: in})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("JSON predict answered HTTP %d", resp.StatusCode)
	}
	var out serve.PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Output, err
}

// TestRouterSurvivesBackendDeath: killing the owning backend mid-run
// costs zero failed requests even WITHOUT client-side retry — the
// router demotes the dead backend synchronously on the transport
// error, re-ships the model to the rehashed owner, and retries the
// forward internally. The health loop then reports the death in the
// fleet posture. Run under -race in CI.
func TestRouterSurvivesBackendDeath(t *testing.T) {
	spec, data, _ := trainModel(t, 7)
	router, routerURL, urls, kill := routerFleet(t, 3)

	var img bytes.Buffer
	if err := serve.WriteSnapshot(&img, []serve.SnapshotModel{{Name: "m", Spec: spec, Data: data}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ring := NewRing(0)
	for _, u := range urls {
		ring.Add(u)
	}
	owner, _ := ring.Owner("m")
	victim := -1
	for i, u := range urls {
		if u == owner {
			victim = i
		}
	}

	c := serve.NewClient(routerURL)
	want, err := c.PredictCtx(context.Background(), "m", input(0))
	if err != nil {
		t.Fatal(err)
	}

	const width, perWorker = 8, 30
	var failures int64
	var mu sync.Mutex
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/3 {
					once.Do(func() { kill[victim]() })
				}
				out, err := c.PredictCtx(context.Background(), "m", input(0))
				mu.Lock()
				if err != nil {
					failures++
					t.Errorf("request failed across backend death: %v", err)
				} else {
					for j := range out {
						if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
							t.Errorf("failover prediction differs: %v vs %v", out, want)
							break
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if failures != 0 {
		t.Fatalf("%d requests failed across the backend kill; want 0", failures)
	}

	// The health loop notices the corpse and the posture reflects it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := router.Status(context.Background())
		if st.LiveBackends == 2 {
			if !st.Ready {
				t.Fatal("fleet with 2/3 live backends should stay ready")
			}
			if st.Placements["m"] == owner {
				t.Fatalf("model still placed on dead backend %s", owner)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health loop never demoted the dead backend: %+v", st.Checks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterCloseWithoutStart: Close on a router whose health loop was
// never started returns promptly, a second Close is harmless, and a
// Start after Close launches nothing. A second Start on a live router
// is a no-op, so one Close still stops it.
func TestRouterCloseWithoutStart(t *testing.T) {
	within := func(name string, f func()) {
		t.Helper()
		ch := make(chan struct{})
		go func() { f(); close(ch) }()
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after 2s", name)
		}
	}

	rt := NewRouter(Config{Backends: []string{"http://127.0.0.1:1"}})
	within("Close on an unstarted router", rt.Close)
	within("second Close", rt.Close)
	rt.Start()
	select {
	case <-rt.done:
	default:
		t.Fatal("done reopened by Start after Close")
	}

	live := NewRouter(Config{Backends: []string{"http://127.0.0.1:1"}, HealthInterval: time.Millisecond})
	live.Start()
	live.Start()
	within("Close after a double Start", live.Close)
}
