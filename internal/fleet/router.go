package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/serve"
)

// DefaultHealthInterval is the health-probe cadence per backend.
const DefaultHealthInterval = 250 * time.Millisecond

// failAfter is how many consecutive probe failures demote a backend:
// one lost packet must not rehash the fleet. A deep-health 503 — alive
// but not fit to serve, e.g. a drifting model — counts as a failure:
// the router drains traffic away exactly as DESIGN.md §5h promises.
const failAfter = 2

// idlePerBackend is how many idle connections the router keeps to each
// backend, so concurrent forwards reuse connections instead of dialing
// one per request (http.DefaultTransport keeps 2 per host).
const idlePerBackend = 64

// maxBody caps any request body the router buffers (same posture as
// the serve package's JSON limit).
const maxBody = 256 << 20

// Config tunes a Router. Backends is the only required field; every
// zero value selects the documented default.
type Config struct {
	// Backends are the auserve base URLs the ring shards models across.
	Backends []string
	// HealthInterval is the per-backend /healthz?deep=1 probe cadence
	// (default 250ms).
	HealthInterval time.Duration
	// Logger overrides the structured logger (default obs.Logger()).
	Logger *slog.Logger
	// Supervisor, when the backends are supervised children (aufleet
	// -spawn), lets /statusz include their process states. The router
	// never acts on it — health evidence comes from its own probes.
	Supervisor *Supervisor
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	return c
}

// backendState is one backend's row in the router's health table.
type backendState struct {
	url       string
	up        bool
	fails     int // consecutive probe failures
	lastErr   string
	downSince time.Time
}

// Router is the fleet frontend: it speaks the exact auserve wire
// protocol (JSON and binary predict, act, observe, reload, snapshot
// install, model listing) and forwards each request to the backend the
// consistent-hash ring assigns the request's model to. It owns model
// placement — snapshot images POSTed to the router are kept and shipped
// (one-model AUSN images) to the owning backend, and re-shipped to the
// new owner whenever ring membership changes — and it aggregates
// per-backend health and /statusz into one fleet posture.
//
// The router never interprets request semantics beyond sniffing the
// model name: predictions, batching, shedding (429/ErrOverloaded) and
// drift verdicts all happen in the workers, and their responses pass
// through byte-for-byte. That keeps every serving contract — typed
// errors, bit-identical outputs, explicit backpressure — end-to-end.
type Router struct {
	cfg   Config
	hc    *http.Client
	log   *slog.Logger
	start time.Time

	mu       sync.Mutex
	ring     *Ring
	backends map[string]*backendState
	order    []string                       // configured backend order (display)
	store    map[string]serve.SnapshotModel // installed model images
	placed   map[string]string              // model → backend last shipped to

	startOnce sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
}

// NewRouter builds a Router over the configured backends. Backends
// start optimistically up (requests flow before the first probe
// completes); the health loop — started by Start — demotes unreachable
// ones within failAfter probes.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no fleet-wide cap; the per-backend one bounds it
	tr.MaxIdleConnsPerHost = idlePerBackend
	rt := &Router{
		cfg:      cfg,
		hc:       &http.Client{Transport: tr},
		log:      cfg.Logger.With("component", "fleet"),
		start:    time.Now(),
		ring:     NewRing(DefaultVNodes),
		backends: make(map[string]*backendState),
		store:    make(map[string]serve.SnapshotModel),
		placed:   make(map[string]string),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		for len(b) > 0 && b[len(b)-1] == '/' {
			b = b[:len(b)-1]
		}
		if b == "" {
			continue
		}
		if _, dup := rt.backends[b]; dup {
			continue
		}
		rt.backends[b] = &backendState{url: b, up: true}
		rt.order = append(rt.order, b)
		rt.ring.Add(b)
	}
	return rt
}

// Start launches the health loop. Call Close to stop it. A second
// Start, or a Start after Close, is a no-op.
func (rt *Router) Start() {
	rt.startOnce.Do(func() { go rt.healthLoop() })
}

// Close stops the health loop, waits for it to exit and closes the
// router's idle backend connections. It is safe without Start: an
// unstarted router claims the start slot, so no loop can launch later,
// and has nothing to wait for.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.startOnce.Do(func() { close(rt.done) })
	<-rt.done
	rt.hc.CloseIdleConnections()
}

// ---- membership ----

// healthLoop probes every backend's /healthz?deep=1 each interval. A
// 200 marks the backend up immediately (one good probe is enough — the
// supervisor just restarted it and its models are waiting to be
// re-shipped); failAfter consecutive failures mark it down. Every
// transition triggers a placement pass.
func (rt *Router) healthLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	rt.mu.Lock()
	urls := append([]string(nil), rt.order...)
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			rt.probe(u)
		}(u)
	}
	wg.Wait()
}

func (rt *Router) probe(url string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval*4)
	defer cancel()
	err := rt.deepHealth(ctx, url)
	rt.mu.Lock()
	b, ok := rt.backends[url]
	if !ok {
		rt.mu.Unlock()
		return
	}
	if err == nil {
		b.fails = 0
		b.lastErr = ""
		if !b.up {
			b.up = true
			b.downSince = time.Time{}
			rt.ring.Add(url)
			rt.log.Info("backend up", "backend", url)
			rt.mu.Unlock()
			rt.ensurePlacement()
			return
		}
		rt.mu.Unlock()
		return
	}
	b.fails++
	b.lastErr = err.Error()
	if b.up && b.fails >= failAfter {
		rt.demoteLocked(b, err)
		rt.mu.Unlock()
		rt.ensurePlacement()
		return
	}
	rt.mu.Unlock()
}

func (rt *Router) deepHealth(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz?deep=1", nil)
	if err != nil {
		return err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("deep health answered HTTP %d", resp.StatusCode)
	}
	return nil
}

// demoteLocked marks a backend down and rehashes its models away:
// removed from the ring, and its placement records cleared so the
// models re-ship wherever they now hash — including back to this
// backend once it returns (a supervisor-restarted process is empty and
// needs everything again). Caller holds rt.mu.
func (rt *Router) demoteLocked(b *backendState, cause error) {
	b.up = false
	b.downSince = time.Now()
	rt.ring.Remove(b.url)
	for model, at := range rt.placed {
		if at == b.url {
			delete(rt.placed, model)
		}
	}
	rt.log.Warn("backend down", "backend", b.url, "cause", cause)
}

// markUnavailable is the synchronous demotion path: a forward attempt
// hit a transport failure, so the backend is gone right now — no need
// to wait failAfter probe intervals to stop sending it traffic.
func (rt *Router) markUnavailable(url string, cause error) {
	rt.mu.Lock()
	b, ok := rt.backends[url]
	if !ok || !b.up {
		rt.mu.Unlock()
		return
	}
	b.fails = failAfter
	b.lastErr = cause.Error()
	rt.demoteLocked(b, cause)
	rt.mu.Unlock()
	rt.ensurePlacement()
}

// owner resolves the live owner of a model.
func (rt *Router) owner(model string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	o, ok := rt.ring.Owner(model)
	if !ok {
		return "", auerr.E(auerr.ErrUnavailable, "fleet: all %d backends are down", len(rt.backends))
	}
	return o, nil
}

// ---- placement ----

// ensurePlacement reconciles model placement with the current ring:
// every installed model whose recorded placement differs from its ring
// owner is shipped (as a one-model AUSN image) to that owner. Runs
// after every membership change and every snapshot install; failures
// are logged and retried on the next transition (or when the health
// loop flips the target backend again).
func (rt *Router) ensurePlacement() {
	type shipment struct {
		model serve.SnapshotModel
		to    string
	}
	rt.mu.Lock()
	var ships []shipment
	for name, m := range rt.store {
		o, ok := rt.ring.Owner(name)
		if !ok {
			continue
		}
		if rt.placed[name] != o {
			ships = append(ships, shipment{model: m, to: o})
		}
	}
	rt.mu.Unlock()
	for _, s := range ships {
		if err := rt.ship(s.model, s.to); err != nil {
			rt.log.Warn("model shipment failed", "model", s.model.Name, "to", s.to, "err", err)
			continue
		}
		rt.mu.Lock()
		// Re-check the owner: membership may have moved again while the
		// image was in flight. A stale shipment is harmless (the backend
		// just holds an unused model) but must not be recorded as current.
		if o, ok := rt.ring.Owner(s.model.Name); ok && o == s.to {
			rt.placed[s.model.Name] = s.to
		}
		rt.mu.Unlock()
		rt.log.Info("model placed", "model", s.model.Name, "backend", s.to)
	}
}

// ship POSTs a one-model AUSN image to a backend's /v1/snapshot.
func (rt *Router) ship(m serve.SnapshotModel, to string) error {
	var img bytes.Buffer
	if err := serve.WriteSnapshot(&img, []serve.SnapshotModel{m}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, to+"/v1/snapshot", bytes.NewReader(img.Bytes()))
	if err != nil {
		return err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: backend answered HTTP %d to snapshot install", resp.StatusCode)
	}
	return nil
}

// ---- HTTP surface ----

// Handler returns the router's HTTP surface — endpoint-compatible with
// a single auserve, so autonomizer.NewClient/Dial pointed at the router
// needs no fleet awareness at all:
//
//	POST /v1/predict            forwarded to the model's owner (JSON or binary)
//	POST /v1/act                forwarded to the model's owner
//	POST /v1/observe            forwarded to the model's owner
//	POST /v1/snapshot           stored, split and shipped per the hash ring
//	POST /models/{name}/reload  forwarded to the model's owner
//	GET  /v1/models             union of every live backend's models
//	GET  /healthz               fleet liveness; ?deep=1 requires ≥1 live backend
//	GET  /statusz               fleet posture (per-backend health + /statusz)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", rt.handlePredict)
	mux.HandleFunc("POST /v1/act", rt.handleModelJSON("/v1/act"))
	mux.HandleFunc("POST /v1/observe", rt.handleModelJSON("/v1/observe"))
	mux.HandleFunc("POST /v1/snapshot", rt.handleSnapshot)
	mux.HandleFunc("POST /models/{name}/reload", rt.handleReload)
	mux.HandleFunc("GET /v1/models", rt.handleModels)
	mux.HandleFunc("GET /healthz", obs.HealthzHandler(rt.readiness))
	mux.HandleFunc("GET /statusz", rt.handleStatusz)
	return mux
}

// traced continues the caller's trace from the incoming traceparent
// (same contract as serve.Server.traced).
func (rt *Router) traced(r *http.Request) context.Context {
	ctx := r.Context()
	if !obs.TracingEnabled() {
		return ctx
	}
	ctx, err := obs.ContinueFromHeader(ctx, r.Header.Get(obs.TraceparentHeader))
	if err != nil {
		rt.log.Debug("rejected malformed traceparent", "err", err)
	}
	return ctx
}

// forward proxies one model-addressed request to the model's owner,
// copying the backend's status, content type and body through
// byte-for-byte — the router adds routing, not semantics. A transport
// failure demotes the owner synchronously and retries against the
// rehashed ring (bounded by the fleet size), so a single backend death
// costs at most one in-flight request per concurrent caller — and even
// that one succeeds when the next owner already holds the model.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, span, path, model string, body []byte, contentType string) {
	ctx, sp := obs.StartSpan(rt.traced(r), span)
	var spanErr error
	defer func() { sp.End(spanErr) }()

	rt.mu.Lock()
	attempts := len(rt.backends)
	rt.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		owner, err := rt.owner(model)
		if err != nil {
			spanErr = err
			serve.WriteError(w, err)
			return
		}
		// Close the placement race before forwarding: a membership change
		// may have rehashed this model here while the background shipment
		// is still in flight (or failed). The router is the placement
		// authority, so it verifies — and if needed performs — the ship
		// synchronously; duplicate ships are idempotent installs.
		rt.mu.Lock()
		m, stored := rt.store[model]
		placedAt := rt.placed[model]
		rt.mu.Unlock()
		if stored && placedAt != owner {
			if err := rt.ship(m, owner); err != nil {
				rt.log.Warn("inline model shipment failed", "model", model, "to", owner, "err", err)
			} else {
				rt.mu.Lock()
				if o, ok := rt.ring.Owner(model); ok && o == owner {
					rt.placed[model] = owner
				}
				rt.mu.Unlock()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+path, bytes.NewReader(body))
		if err != nil {
			spanErr = err
			serve.WriteError(w, err)
			return
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if obs.TracingEnabled() {
			obs.InjectTraceparent(ctx, req.Header)
		} else if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
			// Tracing off router-side: pass the caller's context through
			// untouched so client→backend continuation still works.
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				spanErr = auerr.Canceled(ctx)
				serve.WriteError(w, spanErr)
				return
			}
			lastErr = auerr.E(auerr.ErrUnavailable, "fleet: backend %s unreachable: %v", owner, err)
			rt.markUnavailable(owner, err)
			continue
		}
		func() {
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(resp.StatusCode)
			if _, err := io.Copy(w, resp.Body); err != nil {
				rt.log.Debug("response relay failed", "err", err)
			}
		}()
		return
	}
	spanErr = lastErr
	serve.WriteError(w, lastErr)
}

// handlePredict sniffs the model name out of either predict encoding —
// the JSON body's model field or the binary frame header — and
// forwards the original bytes untouched.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: read predict body: %v", err))
		return
	}
	ct := r.Header.Get("Content-Type")
	var model string
	if len(ct) >= len(serve.BinaryContentType) && ct[:len(serve.BinaryContentType)] == serve.BinaryContentType {
		model, _, err = serve.DecodePredictFrame(bytes.NewReader(body))
		if err != nil {
			serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: bad binary frame: %v", err))
			return
		}
	} else {
		var req struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: bad predict request: %v", err))
			return
		}
		model = req.Model
	}
	rt.forward(w, r, "fleet.predict", "/v1/predict", model, body, ct)
}

// handleModelJSON forwards a JSON endpoint whose body carries the
// model name in a "model" field (act, observe).
func (rt *Router) handleModelJSON(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
		if err != nil {
			serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: read body: %v", err))
			return
		}
		var req struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: bad request: %v", err))
			return
		}
		rt.forward(w, r, "fleet"+path, path, req.Model, body, "application/json")
	}
}

// handleSnapshot is the fleet install path: the posted AUSN image is
// decoded, each model is remembered (the router is the placement
// authority and re-ships on every membership change), and shipped to
// the backend the ring assigns it to.
func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	_, sp := obs.StartSpan(rt.traced(r), "fleet.snapshot")
	var spanErr error
	defer func() { sp.End(spanErr) }()

	models, err := serve.ReadSnapshot(io.LimitReader(r.Body, maxBody))
	if err != nil {
		spanErr = auerr.E(auerr.ErrSpecInvalid, "fleet: snapshot rejected: %v", err)
		serve.WriteError(w, spanErr)
		return
	}
	rt.mu.Lock()
	for _, m := range models {
		rt.store[m.Name] = m
		delete(rt.placed, m.Name) // force a (re-)ship even on same-owner reinstall
	}
	rt.mu.Unlock()
	rt.ensurePlacement()
	serve.WriteJSON(w, serve.SnapshotResponse{Models: len(models)})
}

// handleReload forwards a hot reload to the model's owner. A raw
// weight image in the body also refreshes the router's stored copy, so
// a later rehash re-ships the reloaded weights, not the stale install.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		serve.WriteError(w, auerr.E(auerr.ErrSpecInvalid, "fleet: read reload body: %v", err))
		return
	}
	if len(body) > 0 {
		rt.mu.Lock()
		if m, ok := rt.store[name]; ok {
			m.Data = append([]byte(nil), body...)
			rt.store[name] = m
		}
		rt.mu.Unlock()
	}
	rt.forward(w, r, "fleet.reload", "/models/"+name+"/reload", name, body, "application/octet-stream")
}

// handleModels answers with the union of every live backend's model
// list, sorted by name (one backend owns each model, so the union is
// the fleet's catalog).
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	live := rt.ring.Members()
	rt.mu.Unlock()
	seen := make(map[string]serve.ModelInfo)
	for _, b := range live {
		infos, err := rt.backendModels(r.Context(), b)
		if err != nil {
			rt.log.Debug("model listing failed", "backend", b, "err", err)
			continue
		}
		for _, mi := range infos {
			seen[mi.Name] = mi
		}
	}
	out := make([]serve.ModelInfo, 0, len(seen))
	for _, mi := range seen {
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	serve.WriteJSON(w, out)
}

func (rt *Router) backendModels(ctx context.Context, url string) ([]serve.ModelInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/models", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out []serve.ModelInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// readiness is the fleet's deep-health verdict: ready while at least
// one backend is live, with one check row per backend.
func (rt *Router) readiness() (bool, map[string]string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	checks := make(map[string]string, len(rt.backends))
	liveCount := 0
	for _, b := range rt.backends {
		key := "backend:" + b.url
		if b.up {
			liveCount++
			checks[key] = "ok"
		} else {
			checks[key] = fmt.Sprintf("down since %s: %s",
				b.downSince.Format(time.RFC3339), b.lastErr)
		}
	}
	if liveCount == 0 {
		checks["fleet"] = "no live backends"
		return false, checks
	}
	checks["fleet"] = fmt.Sprintf("%d/%d backends live", liveCount, len(rt.backends))
	return true, checks
}
