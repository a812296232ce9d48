package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/db"
	"github.com/autonomizer/autonomizer/internal/obs"
)

// Client is the remote counterpart of the in-process Runtime's query
// path: it implements the root package's Querier interface, so a host
// program written against Querier switches between embedded and remote
// inference with one constructor change.
//
// The database store π lives client-side: Extract, Serialize and
// WriteBack are local, exactly as cheap as in-process, and only the
// model queries (NN, NNRL, Predict — the calls that dominate end-to-end
// cost) cross the network, where the server's micro-batcher coalesces
// them with other clients' traffic. The served models are TS-mode
// snapshots, so the training-side behaviours of the primitives (online
// gradient steps in Train-mode NN, DQN updates in NNRL) do not apply:
// NNRL's reward/terminal arguments are accepted for signature parity
// and ignored, matching the TEST rule.
//
// Server-reported failures preserve the typed-error contract: the
// error class travels in the response body and is rebuilt into the
// same auerr sentinel, so errors.Is dispatch works identically against
// a Runtime or a Client.
//
// Every request goes to the base URL NewClient was given: one auserve,
// or an aufleet router, whose surface is the same. A sharded fleet is
// reached through its router, which places models on backends and
// re-places them when one dies.
type Client struct {
	base  string
	hc    *http.Client
	store *db.Store
	retry RetryPolicy
}

// RetryPolicy tunes WithRetry: jittered exponential backoff around
// transient serving failures (a shed request, a dead backend). The
// zero value of each field selects the documented default.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first
	// (default 4). 1 means no retry.
	Attempts int
	// Base is the first backoff delay (default 10ms); each further
	// retry doubles it.
	Base time.Duration
	// Max caps a single backoff delay (default 1s).
	Max time.Duration
	// Budget bounds the whole retrying call, sleeps included (default
	// 0: only the caller's context limits it). When the budget runs
	// out mid-backoff the last transient error is returned, not
	// ErrCanceled — the caller's own context was still live.
	Budget time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	return p
}

// delay computes the jittered exponential backoff before retry number
// try (0-based): min(Max, Base<<try) scaled by a uniform [0.5, 1.5)
// jitter so a fleet of retrying clients does not thunder back in step.
func (p RetryPolicy) delay(try int) time.Duration {
	d := p.Base << uint(try)
	if d <= 0 || d > p.Max {
		d = p.Max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry makes the client retry transient failures — shed requests
// (ErrOverloaded/429) and dead or missing backends (ErrUnavailable,
// transport errors) — with jittered exponential backoff under p.
// Non-transient failures (unknown model, malformed input) never
// retry, and a canceled context stops the loop immediately. Against
// a fleet router a backend death needs no retry: the router fails the
// request over to the model's next owner itself.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// NewClient returns a Client talking to an auserve (or embedded
// serve.Server) at baseURL, e.g. "http://127.0.0.1:8080".
func NewClient(baseURL string, opts ...ClientOption) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{base: baseURL, hc: http.DefaultClient, store: db.New()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// DB exposes the client-side database store π (read access for
// harnesses and tests, mirroring Runtime.DB).
func (c *Client) DB() *db.Store { return c.store }

// Retry reports the client's retry policy (zero value: no retry).
func (c *Client) Retry() RetryPolicy { return c.retry }

// live mirrors the runtime's entry-point cancellation check.
func live(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return auerr.Canceled(ctx)
	}
	return nil
}

// retryable reports whether an error is transient serving trouble —
// worth a backoff and another attempt rather than a hard failure.
func retryable(err error) bool {
	return errors.Is(err, auerr.ErrOverloaded) || errors.Is(err, auerr.ErrUnavailable)
}

// do runs one remote operation under the retry policy: attempt, and —
// for transient failures under a WithRetry policy — back off and go
// again.
func (c *Client) do(ctx context.Context, attempt func() error) error {
	pol := c.retry
	caller := ctx
	if pol.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.Budget)
		defer cancel()
	}
	var err error
	for try := 0; ; try++ {
		err = attempt()
		if err == nil || try+1 >= pol.Attempts || !retryable(err) {
			return err
		}
		timer := time.NewTimer(pol.delay(try))
		select {
		case <-ctx.Done():
			timer.Stop()
			if cerr := live(caller); cerr != nil {
				return cerr
			}
			// The retry budget (not the caller) ran out: the last
			// transient error is the honest answer.
			return err
		case <-timer.C:
		}
	}
}

// ---- local primitives (the π side) ----

// ExtractCtx is au_extract against the client-side store.
func (c *Client) ExtractCtx(ctx context.Context, name string, vals ...float64) error {
	if err := live(ctx); err != nil {
		return err
	}
	c.store.Append(name, vals...)
	return nil
}

// Extract is ExtractCtx with context.Background().
func (c *Client) Extract(name string, vals ...float64) {
	_ = c.ExtractCtx(context.Background(), name, vals...)
}

// SerializeCtx is au_serialize against the client-side store, with the
// runtime's consuming semantics (constituent lists are reset).
func (c *Client) SerializeCtx(ctx context.Context, names ...string) (string, error) {
	if err := live(ctx); err != nil {
		return "", err
	}
	key := c.store.Concat(names...)
	for _, n := range names {
		c.store.Reset(n)
	}
	return key, nil
}

// Serialize is SerializeCtx with context.Background().
func (c *Client) Serialize(names ...string) string {
	key, _ := c.SerializeCtx(context.Background(), names...)
	return key
}

// WriteBackCtx is au_write_back from the client-side store.
func (c *Client) WriteBackCtx(ctx context.Context, name string, dst []float64) (int, error) {
	if err := live(ctx); err != nil {
		return 0, err
	}
	vals, ok := c.store.Get(name)
	if !ok {
		return 0, auerr.E(auerr.ErrMissingInput, "serve: au_write_back of unbound name %q", name)
	}
	return copy(dst, vals), nil
}

// WriteBack is WriteBackCtx with context.Background().
func (c *Client) WriteBack(name string, dst []float64) (int, error) {
	return c.WriteBackCtx(context.Background(), name, dst)
}

// WriteBackActionCtx is the discrete-action write-back.
func (c *Client) WriteBackActionCtx(ctx context.Context, name string) (int, error) {
	var v [1]float64
	n, err := c.WriteBackCtx(ctx, name, v[:])
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, auerr.E(auerr.ErrMissingInput, "serve: au_write_back of empty binding %q", name)
	}
	return int(v[0] + 0.5), nil
}

// WriteBackAction is WriteBackActionCtx with context.Background().
func (c *Client) WriteBackAction(name string) (int, error) {
	return c.WriteBackActionCtx(context.Background(), name)
}

// ---- remote primitives (the θ side) ----

// PredictCtx runs one forward pass on the server; concurrent callers
// across all clients coalesce into server-side minibatches. Results are
// bit-identical to the embedded Runtime.PredictCtx on the same
// snapshot.
func (c *Client) PredictCtx(ctx context.Context, mdName string, in []float64) (out []float64, err error) {
	if err := live(ctx); err != nil {
		return nil, err
	}
	// The client span roots (or continues) the trace; its span ID rides
	// the traceparent header so the server-side serve.predict span joins
	// the same trace. One atomic load when tracing is off.
	ctx, sp := obs.StartSpan(ctx, "client.predict")
	defer func() { sp.End(err) }()
	err = c.do(ctx, func() error {
		var aerr error
		out, aerr = c.predictBinary(ctx, mdName, in)
		return aerr
	})
	return out, err
}

// Predict is PredictCtx with context.Background().
func (c *Client) Predict(mdName string, in []float64) ([]float64, error) {
	return c.PredictCtx(context.Background(), mdName, in)
}

// NNCtx is the supervised au_NN against a remote model: read the input
// list from the local store, predict remotely, bind the output chunks
// to the write-back names, reset the input (the TEST rule; serving is
// TS-mode, so no gradient step).
func (c *Client) NNCtx(ctx context.Context, mdName, extName string, wbNames ...string) error {
	if err := live(ctx); err != nil {
		return err
	}
	if len(wbNames) == 0 {
		return auerr.E(auerr.ErrSpecInvalid, "serve: au_NN needs at least one write-back name")
	}
	in, ok := c.store.Get(extName)
	if !ok || len(in) == 0 {
		return auerr.E(auerr.ErrMissingInput, "serve: au_NN input %q is empty; call au_extract first", extName)
	}
	out, err := c.PredictCtx(ctx, mdName, in)
	if err != nil {
		return err
	}
	if len(out)%len(wbNames) != 0 {
		return auerr.E(auerr.ErrSpecInvalid, "serve: model %q output size %d not divisible across %d write-back names",
			mdName, len(out), len(wbNames))
	}
	chunk := len(out) / len(wbNames)
	for i, wb := range wbNames {
		c.store.Put(wb, out[i*chunk:(i+1)*chunk])
	}
	c.store.Reset(extName)
	return nil
}

// NN is NNCtx with context.Background().
func (c *Client) NN(mdName, extName string, wbNames ...string) error {
	return c.NNCtx(context.Background(), mdName, extName, wbNames...)
}

// NNRLCtx is the RL au_NN against a remote model: the greedy (TS-mode)
// action for the state in the local store. reward and terminal are
// accepted for Querier parity and ignored — served snapshots do not
// learn online.
func (c *Client) NNRLCtx(ctx context.Context, mdName, extName string, reward float64, terminal bool, wbName string) (err error) {
	_ = reward
	_ = terminal
	if err := live(ctx); err != nil {
		return err
	}
	state, ok := c.store.Get(extName)
	if !ok || len(state) == 0 {
		return auerr.E(auerr.ErrMissingInput, "serve: au_NN input %q is empty; call au_extract first", extName)
	}
	ctx, sp := obs.StartSpan(ctx, "client.act")
	defer func() { sp.End(err) }()
	var resp ActResponse
	if err := c.postJSON(ctx, "/v1/act", ActRequest{Model: mdName, State: state}, &resp); err != nil {
		return err
	}
	c.store.Put(wbName, []float64{float64(resp.Action)})
	c.store.Reset(extName)
	return nil
}

// NNRL is NNRLCtx with context.Background().
func (c *Client) NNRL(mdName, extName string, reward float64, terminal bool, wbName string) error {
	return c.NNRLCtx(context.Background(), mdName, extName, reward, terminal, wbName)
}

// Models lists the models the server is currently serving. A fleet
// router answers with the union of its live backends' models.
func (c *Client) Models(ctx context.Context) (out []ModelInfo, err error) {
	err = c.do(ctx, func() error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/models", nil)
		if rerr != nil {
			return rerr
		}
		resp, rerr := c.hc.Do(req)
		if rerr != nil {
			return c.transportError(ctx, rerr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errorFromResponse(resp)
		}
		out = out[:0]
		if rerr := json.NewDecoder(resp.Body).Decode(&out); rerr != nil {
			return fmt.Errorf("serve: decode models response: %w", rerr)
		}
		return nil
	})
	return out, err
}

// ObserveCtx reports the ground-truth outcome for a prediction this
// client served earlier: the server's drift monitor folds the pair's
// mean squared error into the model's rolling window and returns the
// updated verdict. Call it when the host program learns the true value
// (the same moment it would WriteBack), closing the loop that lets the
// fleet notice a model drifting away from reality. Observe is not
// idempotent: under WithRetry, a retry after a response was lost (the
// server recorded the pair, but the answer never arrived) records the
// observation twice.
func (c *Client) ObserveCtx(ctx context.Context, mdName string, predicted, observed []float64) (obs.DriftStatus, error) {
	if err := live(ctx); err != nil {
		return obs.DriftStatus{}, err
	}
	var resp ObserveResponse
	if err := c.postJSON(ctx, "/v1/observe", ObserveRequest{
		Model: mdName, Predicted: predicted, Observed: observed,
	}, &resp); err != nil {
		return obs.DriftStatus{}, err
	}
	return obs.DriftStatus{
		Model: resp.Model, Loss: resp.Loss, Samples: resp.Samples,
		Threshold: resp.Threshold, Healthy: resp.Healthy,
	}, nil
}

// Observe is ObserveCtx with context.Background().
func (c *Client) Observe(mdName string, predicted, observed []float64) (obs.DriftStatus, error) {
	return c.ObserveCtx(context.Background(), mdName, predicted, observed)
}

// Reload asks the server to hot-reload one model from its snapshot
// source (data nil) or from the given SaveModel image. It returns the
// new version.
func (c *Client) Reload(ctx context.Context, mdName string, data []byte) (version int, err error) {
	err = c.do(ctx, func() error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost,
			c.base+"/models/"+mdName+"/reload", bytes.NewReader(data))
		if rerr != nil {
			return rerr
		}
		resp, rerr := c.hc.Do(req)
		if rerr != nil {
			return c.transportError(ctx, rerr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errorFromResponse(resp)
		}
		var ack ReloadResponse
		if rerr := json.NewDecoder(resp.Body).Decode(&ack); rerr != nil {
			return fmt.Errorf("serve: decode reload response: %w", rerr)
		}
		version = ack.Version
		return nil
	})
	return version, err
}

// ---- transport plumbing ----

func (c *Client) predictBinary(ctx context.Context, mdName string, in []float64) ([]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/predict", bytes.NewReader(encodePredictFrame(mdName, in)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", BinaryContentType)
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.transportError(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFromResponse(resp)
	}
	out, err := readVector(resp.Body)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, func() error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		obs.InjectTraceparent(ctx, req.Header)
		resp, rerr := c.hc.Do(req)
		if rerr != nil {
			return c.transportError(ctx, rerr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errorFromResponse(resp)
		}
		if rerr := json.NewDecoder(resp.Body).Decode(out); rerr != nil {
			return fmt.Errorf("serve: decode %s response: %w", path, rerr)
		}
		return nil
	})
}

// transportError keeps the typed-error contract across the network: a
// request that died because the caller's context did reports the same
// typed ErrCanceled an in-process primitive would, and one that died
// because the backend did (connection refused/reset — the process is
// gone or never there) reports ErrUnavailable, the transient class the
// retry policy acts on.
func (c *Client) transportError(ctx context.Context, err error) error {
	if ctx != nil && ctx.Err() != nil {
		return auerr.Canceled(ctx)
	}
	return auerr.E(auerr.ErrUnavailable, "serve: request failed: %v", err)
}

// errorFromResponse rebuilds the typed error from the uniform error
// body: the class field round-trips to its auerr sentinel, so
// errors.Is works on remote failures exactly as on local ones.
func errorFromResponse(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		if sentinel := auerr.FromClass(er.Class); sentinel != nil {
			return fmt.Errorf("%w: %s", sentinel, er.Error)
		}
		return fmt.Errorf("serve: server error (HTTP %d): %s", resp.StatusCode, er.Error)
	}
	return fmt.Errorf("serve: server error (HTTP %d): %s", resp.StatusCode, bytes.TrimSpace(body))
}
