package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/autonomizer/autonomizer/internal/obs"
)

// spanByName finds the newest ring record with the given name.
func spanByName(recs []obs.SpanRecord, name string) (obs.SpanRecord, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Name == name {
			return recs[i], true
		}
	}
	return obs.SpanRecord{}, false
}

// TestTracedRequestSpanChain is the end-to-end tracing acceptance
// check: one traced client Predict produces a linked span chain —
// client.predict → serve.predict (continued over the wire) →
// serve.batch → serve.engine_predict — all sharing one TraceID, with
// the engine-predict span carrying a link back to the request span it
// coalesced.
func TestTracedRequestSpanChain(t *testing.T) {
	oldT := obs.SetTracing(true)
	defer obs.SetTracing(oldT)

	spec, data, _ := trainModel(t, 41)
	_, url := newTestServer(t, Config{Registry: obs.NewRegistry()}, spec, data)
	cli := NewClient(url)
	out, err := cli.PredictCtx(context.Background(), "m", []float64{0.3, 0.7})
	if err != nil || len(out) == 0 {
		t.Fatalf("traced predict failed: %v (out %v)", err, out)
	}

	recs := obs.RecentSpans()
	chain := make(map[string]obs.SpanRecord, 4)
	for _, name := range []string{"client.predict", "serve.predict", "serve.batch", "serve.engine_predict"} {
		rec, ok := spanByName(recs, name)
		if !ok {
			t.Fatalf("span %q missing from the ring (got %d records)", name, len(recs))
		}
		chain[name] = rec
	}
	trace := chain["client.predict"].TraceID
	if len(trace) != 32 {
		t.Fatalf("client span trace id %q, want 32 hex digits", trace)
	}
	for name, rec := range chain {
		if rec.TraceID != trace {
			t.Errorf("span %q is on trace %q, want the client's %q — the trace broke at the socket", name, rec.TraceID, trace)
		}
	}
	// Parent chain: the server handler's parent is the client span
	// (propagated through the traceparent header, bit-exact), the batch
	// continues the handler, and engine-predict is the batch's child.
	if got, want := chain["serve.predict"].ParentID, chain["client.predict"].SpanID; got != want {
		t.Errorf("serve.predict parent %q, want the client span %q", got, want)
	}
	if got, want := chain["serve.batch"].ParentID, chain["serve.predict"].SpanID; got != want {
		t.Errorf("serve.batch parent %q, want the handler span %q", got, want)
	}
	if got, want := chain["serve.engine_predict"].ParentID, chain["serve.batch"].SpanID; got != want {
		t.Errorf("serve.engine_predict parent %q, want the batch span %q", got, want)
	}
	// Batch coalescing is recorded as links: the engine-predict span
	// links every request span it served — here, exactly our request.
	links := chain["serve.engine_predict"].Links
	if len(links) != 1 || links[0].SpanID != chain["serve.predict"].SpanID || links[0].TraceID != trace {
		t.Errorf("engine-predict links %+v, want one link to the request span %q", links, chain["serve.predict"].SpanID)
	}
}

// TestMalformedTraceparentStartsFreshTrace checks the reject-and-serve
// contract: a malformed traceparent header never fails the request, and
// the server span starts a fresh root trace instead of adopting any
// part of the bad header.
func TestMalformedTraceparentStartsFreshTrace(t *testing.T) {
	oldT := obs.SetTracing(true)
	defer obs.SetTracing(oldT)

	spec, data, _ := trainModel(t, 42)
	_, url := newTestServer(t, Config{Registry: obs.NewRegistry()}, spec, data)

	body, err := json.Marshal(PredictRequest{Model: "m", Input: []float64{0.1, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Uppercase hex: well-shaped but invalid per the W3C grammar.
	req.Header.Set(obs.TraceparentHeader, "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with malformed traceparent: HTTP %d, want 200 — observability must not fail requests", resp.StatusCode)
	}

	rec, ok := spanByName(obs.RecentSpans(), "serve.predict")
	if !ok {
		t.Fatal("serve.predict span missing")
	}
	if rec.TraceID == "0af7651916cd43dd8448eb211c80319c" || rec.ParentID != "" {
		t.Errorf("span adopted identity from a rejected header: trace %q parent %q, want a fresh root", rec.TraceID, rec.ParentID)
	}
}

// TestDriftFlipsReadiness is the drift acceptance check: synthetic bad
// observations through POST /v1/observe flip /healthz?deep=1 to 503
// while plain /healthz (liveness) stays 200, and good observations in a
// fresh window recover readiness.
func TestDriftFlipsReadiness(t *testing.T) {
	spec, data, ref := trainModel(t, 43)
	_, url := newTestServer(t, Config{
		DriftThreshold:  0.01,
		DriftWindow:     200 * time.Millisecond,
		DriftMinSamples: 3,
	}, spec, data)
	cli := NewClient(url)
	ctx := context.Background()

	health := func(deep bool) int {
		t.Helper()
		u := url + "/healthz"
		if deep {
			u += "?deep=1"
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := health(true); got != http.StatusOK {
		t.Fatalf("deep health before any observation: %d, want 200", got)
	}

	// Accurate observations first: the model stays healthy.
	in := []float64{0.2, 0.8}
	pred, err := ref.PredictCtx(ctx, "m", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ack, err := cli.ObserveCtx(ctx, "m", pred, pred)
		if err != nil {
			t.Fatal(err)
		}
		if !ack.Healthy || ack.Loss != 0 {
			t.Fatalf("accurate observation verdict %+v, want healthy with zero loss", ack)
		}
	}

	// Synthetic drift: ground truth far from the prediction.
	var ack obs.DriftStatus
	for i := 0; i < 6; i++ {
		ack, err = cli.ObserveCtx(ctx, "m", pred, []float64{pred[0] + 10})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ack.Healthy {
		t.Fatalf("verdict after drift injection %+v, want unhealthy (loss ~100 > 0.01)", ack)
	}
	if got := health(false); got != http.StatusOK {
		t.Errorf("plain /healthz during drift: %d, want 200 — liveness must not flip", got)
	}
	if got := health(true); got != http.StatusServiceUnavailable {
		t.Errorf("/healthz?deep=1 during drift: %d, want 503", got)
	}
	if err := func() error {
		resp, err := http.Get(url + "/healthz?deep=1")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body struct {
			OK     bool              `json:"ok"`
			Ready  *bool             `json:"ready"`
			Checks map[string]string `json:"checks"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		if !body.OK || body.Ready == nil || *body.Ready {
			return fmt.Errorf("deep body %+v, want ok=true ready=false", body)
		}
		if v, ok := body.Checks["drift:m"]; !ok || v == "ok" {
			return fmt.Errorf("checks %+v, want a drift:m failure verdict", body.Checks)
		}
		return nil
	}(); err != nil {
		t.Error(err)
	}

	// The window slides the bad cohort out; fresh accurate observations
	// restore readiness without a restart.
	time.Sleep(450 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := cli.ObserveCtx(ctx, "m", pred, pred); err != nil {
			t.Fatal(err)
		}
	}
	if got := health(true); got != http.StatusOK {
		t.Errorf("deep health after recovery: %d, want 200", got)
	}

	// Observe validation: unknown models 404, mismatched vectors 400.
	if _, err := cli.ObserveCtx(ctx, "ghost", pred, pred); err == nil {
		t.Error("observe against unknown model accepted")
	}
	if _, err := cli.ObserveCtx(ctx, "m", pred, []float64{1, 2, 3}); err == nil {
		t.Error("observe with mismatched vectors accepted")
	}
}

// TestStatusz checks the deep status document: process posture, batch
// config, and the per-model row (version, compiled plan, queue and shed
// state, reload age, drift verdict).
func TestStatusz(t *testing.T) {
	spec, data, _ := trainModel(t, 44)
	srv, url := newTestServer(t, Config{
		MaxBatch:       8,
		QueueDepth:     32,
		DriftThreshold: 0.5,
	}, spec, data)
	cli := NewClient(url)
	if _, err := cli.Predict("m", []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ObserveCtx(context.Background(), "m", []float64{1}, []float64{1.1}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz: HTTP %d, want 200", resp.StatusCode)
	}
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	if !st.Ready || st.UptimeSeconds < 0 {
		t.Errorf("status ready=%v uptime=%v, want ready with non-negative uptime", st.Ready, st.UptimeSeconds)
	}
	if st.Kernel == "" || st.Workers < 1 {
		t.Errorf("status kernel=%q workers=%d, want engine posture reported", st.Kernel, st.Workers)
	}
	if st.MaxBatch != 8 || st.QueueCapacity != 32 {
		t.Errorf("status batch config (%d, %d), want (8, 32)", st.MaxBatch, st.QueueCapacity)
	}
	if st.DriftThreshold != 0.5 {
		t.Errorf("status drift threshold %v, want 0.5", st.DriftThreshold)
	}
	if st.Checks["server"] != "ok" {
		t.Errorf("status checks %+v, want server ok", st.Checks)
	}
	if len(st.Models) != 1 {
		t.Fatalf("status models %+v, want exactly one", st.Models)
	}
	m := st.Models[0]
	if m.Name != "m" || m.Version != 1 || m.InSize != 2 || m.OutSize != 1 {
		t.Errorf("model row %+v, want m v1 2->1", m)
	}
	if m.Plan == "" || m.Plan == "uncompiled" {
		t.Errorf("model plan %q, want the compiled kernel name", m.Plan)
	}
	if m.QueueCapacity != 32 || m.QueueDepth < 0 || m.ShedTotal != 0 {
		t.Errorf("model queue state %+v, want capacity 32 and no shed", m)
	}
	if m.SecondsSinceReload < 0 || m.SecondsSinceReload > 60 {
		t.Errorf("seconds since reload %v, want a fresh install age", m.SecondsSinceReload)
	}
	if m.DriftSamples != 1 || !m.DriftHealthy {
		t.Errorf("model drift state %+v, want 1 healthy sample", m)
	}

	// Ready() is the programmatic form; closing the server flips it.
	if err := srv.Ready(); err != nil {
		t.Errorf("Ready on a healthy server: %v", err)
	}
	srv.Close()
	if err := srv.Ready(); err == nil {
		t.Error("Ready on a closed server: nil, want an error")
	}
}

// TestPerModelLatencyAndStageSeries checks the serving metrics surface:
// traffic produces the per-model latency histogram and all four
// per-stage histogram series.
func TestPerModelLatencyAndStageSeries(t *testing.T) {
	reg := obs.NewRegistry()
	spec, data, _ := trainModel(t, 45)
	_, url := newTestServer(t, Config{Registry: reg}, spec, data)
	cli := NewClient(url)
	for i := 0; i < 10; i++ {
		if _, err := cli.Predict("m", []float64{0.1, 0.9}); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		`autonomizer_serve_model_latency_seconds_bucket{model="m",le="+Inf"} 10` + "\n",
		`autonomizer_serve_model_latency_seconds_count{model="m"} 10` + "\n",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("missing per-model latency series %q:\n%s", series, out)
		}
	}
	for _, stage := range stageName {
		if !strings.Contains(out, `autonomizer_serve_stage_duration_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("missing stage=%q histogram series", stage)
		}
	}
}
