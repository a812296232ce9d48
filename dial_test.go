package autonomizer_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	autonomizer "github.com/autonomizer/autonomizer"
	"github.com/autonomizer/autonomizer/internal/fleet"
	"github.com/autonomizer/autonomizer/internal/serve"
)

// TestDialResolution pins Dial's target grammar: every class of target
// string resolves to the documented engine, and malformed targets fail
// with ErrSpecInvalid instead of a surprise at first query.
func TestDialResolution(t *testing.T) {
	for _, target := range []string{"", "embedded:", "embedded:train"} {
		q, err := autonomizer.Dial(target)
		if err != nil {
			t.Fatalf("Dial(%q): %v", target, err)
		}
		if _, ok := q.(*autonomizer.Runtime); !ok {
			t.Fatalf("Dial(%q) = %T, want *Runtime", target, q)
		}
	}
	for _, target := range []string{"http://127.0.0.1:1", "https://example.invalid"} {
		q, err := autonomizer.Dial(target)
		if err != nil {
			t.Fatalf("Dial(%q): %v", target, err)
		}
		if _, ok := q.(*autonomizer.Client); !ok {
			t.Fatalf("Dial(%q) = %T, want *Client", target, q)
		}
	}
	for _, target := range []string{
		"embedded:banana", "ftp://nope", "fleet:", "fleet: , ", "fleet:ftp://x", "banana",
		"fleet:http://a:1,http://b:1",
	} {
		if _, err := autonomizer.Dial(target); !errors.Is(err, autonomizer.ErrSpecInvalid) {
			t.Errorf("Dial(%q) err = %v, want ErrSpecInvalid", target, err)
		}
	}
}

// TestDialEndToEnd runs the same Querier-shaped decision step against
// embedded, a single server and a fleet of two behind a router, and
// demands identical answers. The migration story in one test: only the
// target string changes.
func TestDialEndToEnd(t *testing.T) {
	spec, data, _ := trainAndSave(t)

	newBackend := func() *httptest.Server {
		srv := serve.NewServer(serve.Config{})
		if _, err := srv.Install("m", spec, data); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts
	}
	b1, b2 := newBackend(), newBackend()

	embedded, err := autonomizer.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	// The embedded Test-mode runtime needs the model loaded; Dial gives
	// the runtime, the host configures it.
	rt := embedded.(*autonomizer.Runtime)
	rt.LoadModel("m", data)
	if err := rt.Config(spec); err != nil {
		t.Fatal(err)
	}

	single, err := autonomizer.Dial(b1.URL)
	if err != nil {
		t.Fatal(err)
	}
	router := fleet.NewRouter(fleet.Config{Backends: []string{b1.URL, b2.URL}})
	router.Start()
	routerWeb := httptest.NewServer(router.Handler())
	t.Cleanup(func() { routerWeb.Close(); router.Close() })
	fleetQ, err := autonomizer.Dial(routerWeb.URL,
		autonomizer.WithRetry(autonomizer.RetryPolicy{}))
	if err != nil {
		t.Fatal(err)
	}

	engines := map[string]autonomizer.Querier{
		"embedded": embedded, "single": single, "fleet": fleetQ,
	}
	var want float64
	first := true
	for name, q := range engines {
		got, err := decide(q, 0.3, 0.6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Errorf("%s answered %v, others %v", name, got, want)
		}
	}
}

// TestObserveAcrossEngines: the drift-feedback primitive behaves
// identically through every Querier — same verdict fields, same typed
// error on an unknown model — whether the monitor lives in-process or
// behind the wire.
func TestObserveAcrossEngines(t *testing.T) {
	spec, data, embedded := trainAndSave(t)
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	if _, err := srv.Install("m", spec, data); err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(srv.Handler())
	defer web.Close()
	remote := autonomizer.NewClient(web.URL)

	for name, q := range map[string]autonomizer.Querier{"embedded": embedded, "remote": remote} {
		st, err := q.Observe("m", []float64{0.5}, []float64{0.25})
		if err != nil {
			t.Fatalf("%s: Observe: %v", name, err)
		}
		if st.Model != "m" || st.Samples != 1 {
			t.Errorf("%s: DriftStatus = %+v, want model m with 1 sample", name, st)
		}
		if st.Loss == 0 {
			t.Errorf("%s: squared error of (0.5, 0.25) recorded as zero loss", name)
		}
		if !st.Healthy {
			t.Errorf("%s: monitor-only drift flipped unhealthy", name)
		}
		if _, err := q.ObserveCtx(context.Background(), "ghost", []float64{1}, []float64{1}); !errors.Is(err, autonomizer.ErrUnknownModel) {
			t.Errorf("%s: Observe of unknown model: %v, want ErrUnknownModel", name, err)
		}
	}
}
