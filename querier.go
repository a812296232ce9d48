package autonomizer

import (
	"context"
	"net/http"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/serve"
)

// Querier is the query-side surface of an autonomized execution: the
// primitives a host calls on every iteration of its decision loop
// (au_extract → au_serialize → au_NN → au_write_back), in both their
// plain and context-aware forms. Two implementations ship with the
// framework, both reachable through Dial:
//
//   - *Runtime — the embedded engine; queries run in-process.
//   - *Client — the remote engine; Predict/NN/NNRL/Observe cross the
//     network to an auserve instance, whose micro-batcher coalesces
//     them with other clients' traffic, while the store-side
//     primitives stay local. Pointed at an aufleet router's URL, the
//     same *Client reaches a sharded fleet.
//
// Hosts written against Querier switch between them with one
// constructor (or one Dial target string) change, and both honor the
// same typed-error contract (errors.Is against ErrUnknownModel,
// ErrMissingInput, ErrOverloaded, ErrUnavailable, ErrCanceled, ...).
// Train-only operations (Config, Fit, Checkpoint, Restore, Save) are
// deliberately outside Querier: serving is TS-mode.
type Querier interface {
	// Extract appends feature values to the named database list
	// (au_extract).
	Extract(name string, vals ...float64)
	ExtractCtx(ctx context.Context, name string, vals ...float64) error

	// Serialize concatenates and consumes the named lists into one
	// model-input binding (au_serialize).
	Serialize(names ...string) string
	SerializeCtx(ctx context.Context, names ...string) (string, error)

	// NN runs the supervised au_NN: feed the extName binding to the
	// model, bind the output across wbNames.
	NN(mdName, extName string, wbNames ...string) error
	NNCtx(ctx context.Context, mdName, extName string, wbNames ...string) error

	// NNRL runs the RL au_NN: select an action for the extName state and
	// bind it to wbName.
	NNRL(mdName, extName string, reward float64, terminal bool, wbName string) error
	NNRLCtx(ctx context.Context, mdName, extName string, reward float64, terminal bool, wbName string) error

	// WriteBack copies a bound output into dst (au_write_back).
	WriteBack(name string, dst []float64) (int, error)
	WriteBackCtx(ctx context.Context, name string, dst []float64) (int, error)

	// WriteBackAction reads a bound discrete action (au_write_back for
	// RL outputs).
	WriteBackAction(name string) (int, error)
	WriteBackActionCtx(ctx context.Context, name string) (int, error)

	// Predict runs one raw forward pass, bypassing the database store.
	Predict(mdName string, in []float64) ([]float64, error)
	PredictCtx(ctx context.Context, mdName string, in []float64) ([]float64, error)

	// Observe reports the ground-truth outcome for an earlier
	// prediction of the named model: the pair's mean squared error
	// joins the model's rolling drift window (embedded: this runtime's
	// own monitor; remote: the serving backend's) and the updated
	// verdict comes back. The loop that lets a deployment notice a
	// model drifting away from reality, wherever the model runs.
	Observe(mdName string, predicted, observed []float64) (DriftStatus, error)
	ObserveCtx(ctx context.Context, mdName string, predicted, observed []float64) (DriftStatus, error)
}

// All engines satisfy Querier; a signature drift in any is a compile
// error here, not a runtime surprise.
var (
	_ Querier = (*Runtime)(nil)
	_ Querier = (*Client)(nil)
)

// Client is a remote Querier talking to an auserve model server (or,
// through an aufleet router's URL, to a sharded fleet of them). See the serve
// package for the wire protocol and batching contract.
type Client = serve.Client

// ClientOption configures a remote Querier — the single option
// vocabulary shared by NewClient and Dial (embedded Dial targets
// ignore client options; they have no transport).
type ClientOption = serve.ClientOption

// RetryPolicy tunes WithRetry: jittered exponential backoff around
// transient serving failures. The zero value of each field selects
// the documented default (4 attempts, 10ms base, 1s cap, no budget).
type RetryPolicy = serve.RetryPolicy

// DriftStatus is one model's current drift verdict, returned by
// Observe/ObserveCtx on every implementation of Querier.
type DriftStatus = obs.DriftStatus

// DriftConfig tunes a drift monitor (window, threshold, sample floor);
// see WithDriftConfig for embedded runtimes and serve.Config for
// servers.
type DriftConfig = obs.DriftConfig

// WithHTTPClient substitutes the client's HTTP transport.
func WithHTTPClient(hc *http.Client) ClientOption { return serve.WithHTTPClient(hc) }

// WithRetry makes a remote Querier retry transient failures — shed
// requests (ErrOverloaded) and dead or missing backends
// (ErrUnavailable) — with jittered exponential backoff under p:
//
//	q, _ := autonomizer.Dial("http://router:8090",
//		autonomizer.WithRetry(autonomizer.RetryPolicy{}))
func WithRetry(p RetryPolicy) ClientOption { return serve.WithRetry(p) }

// NewClient returns a Client for the auserve instance at baseURL:
//
//	q := autonomizer.NewClient("http://127.0.0.1:8080")
//	q.Extract("PX", px)
//	key, _ := q.SerializeCtx(ctx, "PX")
//	if err := q.NNCtx(ctx, "Mario", key, "output"); err != nil { ... }
//
// It remains a thin wrapper over Dial's single-URL case; prefer Dial
// in new code so the target stays one configuration string.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return serve.NewClient(baseURL, opts...)
}

// ErrOverloaded marks a query shed by a saturated server: the serving
// queue was full and the request was rejected immediately (HTTP 429 on
// the wire) rather than queued unboundedly. Retry with backoff.
var ErrOverloaded = auerr.ErrOverloaded

// ErrUnavailable marks a query that could not reach a live backend —
// the fleet had no healthy owner for the model, or the backend died
// mid-request (HTTP 503 on the wire). Transient: the supervisor is
// restarting the backend and the router is rehashing; retry with
// backoff (see WithRetry).
var ErrUnavailable = auerr.ErrUnavailable
