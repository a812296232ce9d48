package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Config tunes a Server. The zero value selects the documented
// defaults, so NewServer(Config{}) is a working batching server.
type Config struct {
	// MaxBatch caps how many requests one batch coalesces (default 32).
	MaxBatch int
	// QueueDepth bounds each model's request queue; a full queue sheds
	// load with ErrOverloaded/429 (default 256).
	QueueDepth int
	// Source, when set, serves empty-body POST /models/{name}/reload by
	// pulling the fresh snapshot from here (e.g. a FileSource).
	Source Source
	// Registry overrides the metrics registry (default obs.Default();
	// nil default means telemetry off, the usual zero-cost posture).
	Registry *obs.Registry
	// Logger overrides the structured logger (default obs.Logger()).
	Logger *slog.Logger
	// DriftThreshold is the rolling mean-squared-error above which a
	// model's drift verdict flips unhealthy, turning /healthz?deep=1
	// not-ready (DESIGN.md §5h). Zero or negative is monitor-only: the
	// monitor records and exports drift but never flips readiness.
	DriftThreshold float64
	// DriftWindow is the rolling window drift loss is averaged over
	// (default 1 minute).
	DriftWindow time.Duration
	// DriftMinSamples is how many observations the window must hold
	// before a drift verdict is rendered (default 8).
	DriftMinSamples int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 32
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	if c.DriftThreshold < 0 {
		c.DriftThreshold = 0
	}
	return c
}

// servedModel is one model's serving state: the atomically swappable
// engine (the live snapshot), the micro-batcher feeding it, the
// per-model latency histogram and the installation timestamp /statusz
// reports as time-since-last-reload.
type servedModel struct {
	name       string
	eng        atomic.Pointer[engine]
	b          *batcher
	lat        *obs.Histogram // nil when telemetry is off
	lastReload atomic.Int64   // unixnano of the most recent Install
}

// Server is the network inference service: it exposes the query-side
// primitives of the runtime over HTTP, coalescing concurrent Predict
// traffic into minibatches per model. Construct with NewServer, install
// models with Install (or LoadSnapshot), mount Handler on any mux.
//
// Endpoints:
//
//	POST /v1/predict            one forward pass (JSON, or the binary fast path)
//	POST /v1/act                greedy action of a QLearn model (remote RL au_NN)
//	POST /v1/observe            ground-truth observation against a served prediction (drift)
//	GET  /v1/models             served models with versions and sizes
//	POST /models/{name}/reload  atomic hot reload (body = SaveModel image, or empty to pull from Source)
//	GET  /healthz               liveness; ?deep=1 adds readiness (drift verdicts, shutdown)
//	GET  /statusz               JSON serving status (per-model queue/shed/drift/reload state)
type Server struct {
	cfg   Config
	log   *slog.Logger
	met   *metricsSet
	drift *obs.DriftMonitor
	start time.Time

	mu     sync.RWMutex
	models map[string]*servedModel
	closed bool
}

// NewServer builds a Server with no models installed.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg: cfg,
		log: cfg.Logger.With("component", "serve"),
		met: newMetricsSet(cfg.Registry),
		drift: obs.NewDriftMonitor(obs.DriftConfig{
			Window:     cfg.DriftWindow,
			Threshold:  cfg.DriftThreshold,
			MinSamples: cfg.DriftMinSamples,
		}, cfg.Registry),
		start:  time.Now(),
		models: make(map[string]*servedModel),
	}
}

// Drift exposes the server's drift monitor (synthetic injection in
// tests, future online-learning rollback hooks).
func (s *Server) Drift() *obs.DriftMonitor { return s.drift }

// Install makes a model servable (or hot-reloads it): spec describes
// the network family, data is a SaveModel image. On an existing name
// the fresh engine is built off to the side and swapped in atomically —
// in-flight batches finish on the old snapshot, the next dispatch sees
// the new one, and the version counter increments. It returns the live
// version.
func (s *Server) Install(name string, spec core.ModelSpec, data []byte) (int, error) {
	if name == "" {
		return 0, auerr.E(auerr.ErrSpecInvalid, "serve: model name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("serve: server is closed")
	}
	version := 1
	if m, ok := s.models[name]; ok {
		version = m.eng.Load().version + 1
	}
	eng, err := buildEngine(name, spec, data, version)
	if err != nil {
		return 0, err
	}
	m, ok := s.models[name]
	if !ok {
		m = &servedModel{name: name}
		m.eng.Store(eng)
		m.lat = s.met.modelLatency(name)
		m.b = newBatcher(m, s.cfg.MaxBatch, s.cfg.QueueDepth, s.met)
		s.models[name] = m
		s.met.queueDepth(name, func() float64 { return float64(m.b.depth()) })
	} else {
		m.eng.Store(eng)
	}
	m.lastReload.Store(time.Now().UnixNano())
	s.met.modelVersion(name, version)
	s.log.Info("model installed", "model", name, "version", version,
		"in", eng.plan.InSize(), "out", eng.plan.OutSize(), "instances", len(eng.insts))
	return version, nil
}

// LoadSnapshot installs every model of a snapshot image and reports how
// many were installed.
func (s *Server) LoadSnapshot(r io.Reader) (int, error) {
	models, err := ReadSnapshot(r)
	if err != nil {
		return 0, err
	}
	for i, m := range models {
		if _, err := s.Install(m.Name, m.Spec, m.Data); err != nil {
			return i, err
		}
	}
	return len(models), nil
}

// Close stops every batcher and refuses further work. In-flight batches
// complete; queued requests fail.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	models := make([]*servedModel, 0, len(s.models))
	for _, m := range s.models {
		models = append(models, m)
	}
	s.mu.Unlock()
	for _, m := range models {
		m.b.close()
	}
}

// model looks a served model up by name.
func (s *Server) model(name string) (*servedModel, bool) {
	s.mu.RLock()
	m, ok := s.models[name]
	s.mu.RUnlock()
	return m, ok
}

// Models lists served models sorted by name.
func (s *Server) Models() []ModelInfo {
	s.mu.RLock()
	out := make([]ModelInfo, 0, len(s.models))
	for _, m := range s.models {
		e := m.eng.Load()
		out = append(out, ModelInfo{Name: m.name, Version: e.version, InSize: e.plan.InSize(), OutSize: e.plan.OutSize()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler returns the HTTP surface. Mount it on any mux; auserve serves
// it next to the obs telemetry endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/act", s.handleAct)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /models/{name}/reload", s.handleReload)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", obs.HealthzHandler(s.readiness))
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

// traced continues the caller's trace from the request's traceparent
// header. A malformed header is rejected (logged, debug level) and the
// request starts a fresh root trace — observability never fails a
// request. One atomic load when tracing is off.
func (s *Server) traced(r *http.Request) context.Context {
	ctx := r.Context()
	if !obs.TracingEnabled() {
		return ctx
	}
	ctx, err := obs.ContinueFromHeader(ctx, r.Header.Get(obs.TraceparentHeader))
	if err != nil {
		s.log.Debug("rejected malformed traceparent", "err", err)
	}
	return ctx
}

// WriteJSON writes a 200 JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Logger().Error("serve: response encode failed", "err", err)
	}
}

// WriteError renders the uniform error body with the auerr class, at
// the status statusFor picks, and returns that status. The fleet router
// answers its own failures through it too, so a class maps to one
// status fleet-wide.
func WriteError(w http.ResponseWriter, err error) int {
	code := statusFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Class: auerr.Class(err)})
	return code
}

// submit resolves the model and runs one input through its batcher,
// feeding the per-model latency histogram (submit to batch completion —
// the latency a remote caller actually experiences server-side).
func (s *Server) submit(ctx context.Context, model string, in []float64) ([]float64, error) {
	m, ok := s.model(model)
	if !ok {
		return nil, auerr.E(auerr.ErrUnknownModel, "serve: unknown model %q", model)
	}
	if s.met == nil {
		return m.b.submit(ctx, in)
	}
	t0 := time.Now()
	out, err := m.b.submit(ctx, in)
	if err == nil {
		m.lat.Observe(time.Since(t0).Seconds())
	}
	return out, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("predict")
	ctx, sp := obs.StartSpan(s.traced(r), "serve.predict")
	code := http.StatusOK
	var spanErr error
	defer func() { sp.End(spanErr); s.met.request("predict", code, tm) }()

	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), BinaryContentType)
	var (
		model string
		in    []float64
	)
	if binaryReq {
		var err error
		model, in, err = decodePredictFrame(r.Body)
		if err != nil {
			spanErr = auerr.E(auerr.ErrSpecInvalid, "serve: bad binary frame: %v", err)
			code = WriteError(w, spanErr)
			return
		}
	} else {
		var req PredictRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxJSONBody)).Decode(&req); err != nil {
			spanErr = auerr.E(auerr.ErrSpecInvalid, "serve: bad predict request: %v", err)
			code = WriteError(w, spanErr)
			return
		}
		model, in = req.Model, req.Input
	}
	out, err := s.submit(ctx, model, in)
	if err != nil {
		spanErr = err
		code = WriteError(w, err)
		return
	}
	enc := s.met.stageTimer(stageResponseEncode)
	if binaryReq {
		w.Header().Set("Content-Type", BinaryContentType)
		if _, err := w.Write(appendVector(nil, out)); err != nil {
			s.log.Debug("predict response write failed", "err", err)
		}
		enc.Stop()
		return
	}
	WriteJSON(w, PredictResponse{Output: out})
	enc.Stop()
}

func (s *Server) handleAct(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("act")
	ctx, sp := obs.StartSpan(s.traced(r), "serve.act")
	code := http.StatusOK
	var spanErr error
	defer func() { sp.End(spanErr); s.met.request("act", code, tm) }()

	var req ActRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxJSONBody)).Decode(&req); err != nil {
		spanErr = auerr.E(auerr.ErrSpecInvalid, "serve: bad act request: %v", err)
		code = WriteError(w, spanErr)
		return
	}
	q, err := s.submit(ctx, req.Model, req.State)
	if err != nil {
		spanErr = err
		code = WriteError(w, err)
		return
	}
	// Greedy argmax over the Q-vector — Test-mode au_NN's plan argmax,
	// so remote NNRL picks exactly the action the embedded runtime would.
	enc := s.met.stageTimer(stageResponseEncode)
	WriteJSON(w, ActResponse{Action: stats.ArgMax(q)})
	enc.Stop()
}

// handleObserve records one ground-truth observation against a served
// prediction: the drift monitor folds the pair's mean squared error
// into the model's rolling window and answers with the updated verdict
// (DESIGN.md §5h). Clients report through Client.ObserveCtx after the
// host program learns the true outcome of a prediction.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("observe")
	_, sp := obs.StartSpan(s.traced(r), "serve.observe")
	code := http.StatusOK
	var spanErr error
	defer func() { sp.End(spanErr); s.met.request("observe", code, tm) }()

	var req ObserveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxJSONBody)).Decode(&req); err != nil {
		spanErr = auerr.E(auerr.ErrSpecInvalid, "serve: bad observe request: %v", err)
		code = WriteError(w, spanErr)
		return
	}
	if _, ok := s.model(req.Model); !ok {
		spanErr = auerr.E(auerr.ErrUnknownModel, "serve: unknown model %q", req.Model)
		code = WriteError(w, spanErr)
		return
	}
	st, err := s.drift.Record(req.Model, req.Predicted, req.Observed)
	if err != nil {
		spanErr = auerr.E(auerr.ErrSpecInvalid, "serve: %v", err)
		code = WriteError(w, spanErr)
		return
	}
	WriteJSON(w, ObserveResponse{
		Model: st.Model, Loss: st.Loss, Samples: st.Samples,
		Threshold: st.Threshold, Healthy: st.Healthy,
	})
}

// handleSnapshot installs every model of an AUSN snapshot image posted
// in the body — the network twin of auserve's -snapshot startup load,
// and the path a fleet router uses to ship models to the backend the
// hash ring assigns them to. Installs are atomic per model (the usual
// engine swap); a corrupt image is rejected before anything installs.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("snapshot")
	_, sp := obs.StartSpan(s.traced(r), "serve.snapshot")
	code := http.StatusOK
	var spanErr error
	defer func() { sp.End(spanErr); s.met.request("snapshot", code, tm) }()

	n, err := s.LoadSnapshot(io.LimitReader(r.Body, maxJSONBody))
	if err != nil {
		if errors.Is(err, auerr.ErrCorruptStore) || errors.Is(err, auerr.ErrCorruptModel) {
			err = auerr.E(auerr.ErrSpecInvalid, "serve: snapshot install rejected: %v", err)
		}
		spanErr = err
		code = WriteError(w, err)
		return
	}
	WriteJSON(w, SnapshotResponse{Models: n})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("models")
	defer s.met.request("models", http.StatusOK, tm)
	WriteJSON(w, s.Models())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("reload")
	_, sp := obs.StartSpan(r.Context(), "serve.reload")
	code := http.StatusOK
	var spanErr error
	defer func() { sp.End(spanErr); s.met.request("reload", code, tm) }()

	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxJSONBody))
	if err != nil {
		spanErr = fmt.Errorf("serve: read reload body: %w", err)
		code = WriteError(w, spanErr)
		return
	}
	var spec core.ModelSpec
	data := body
	switch {
	case len(body) > 0:
		// Raw SaveModel image: keep the spec the live engine serves with.
		m, ok := s.model(name)
		if !ok {
			spanErr = auerr.E(auerr.ErrUnknownModel,
				"serve: cannot reload unknown model %q from raw weights (no spec on file)", name)
			code = WriteError(w, spanErr)
			return
		}
		spec = m.eng.Load().spec
	case s.cfg.Source != nil:
		spec, data, err = s.cfg.Source.Snapshot(name)
		if err != nil {
			spanErr = err
			code = WriteError(w, err)
			return
		}
	default:
		spanErr = auerr.E(auerr.ErrSpecInvalid,
			"serve: reload of %q needs a weight image in the body (no snapshot source configured)", name)
		code = WriteError(w, spanErr)
		return
	}
	version, err := s.Install(name, spec, data)
	if err != nil {
		if errors.Is(err, auerr.ErrCorruptModel) || errors.Is(err, auerr.ErrCorruptStore) {
			err = auerr.E(auerr.ErrSpecInvalid, "serve: reload of %q rejected: %v", name, err)
		}
		spanErr = err
		code = WriteError(w, err)
		return
	}
	WriteJSON(w, ReloadResponse{Model: name, Version: version})
}
