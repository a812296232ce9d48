package core

import (
	"context"
	"log/slog"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
)

// primitive enumerates the instrumented runtime entry points; the names
// are the closed vocabulary of the "primitive" label on the core metric
// families (DESIGN.md §5c).
type primitive int

const (
	pConfig primitive = iota
	pExtract
	pSerialize
	pNN
	pNNRL
	pWriteBack
	pCheckpoint
	pRestore
	pFit
	pPredict
	nPrimitives
)

var primName = [nPrimitives]string{
	"config", "extract", "serialize", "nn", "nnrl",
	"write_back", "checkpoint", "restore", "fit", "predict",
}

// telemetry holds one Runtime's pre-registered instruments, looked up
// once at construction so the per-call cost is an array index and an
// atomic add. A nil *telemetry (telemetry disabled at NewRuntime time)
// short-circuits every method before any allocation or clock read —
// the zero-cost-when-disabled contract benchmarked in BENCH_obs.json.
type telemetry struct {
	reg   *obs.Registry
	calls [nPrimitives]*obs.Counter
	lat   [nPrimitives]*obs.Histogram

	fitEpochs *obs.Counter
	fitStep   *obs.Histogram
}

// newTelemetry builds the instrument set against reg, or returns nil
// when reg is nil (disabled).
func newTelemetry(reg *obs.Registry) *telemetry {
	if reg == nil {
		return nil
	}
	t := &telemetry{reg: reg}
	for p := primitive(0); p < nPrimitives; p++ {
		lbl := obs.Labels{"primitive": primName[p]}
		t.calls[p] = reg.Counter("autonomizer_core_primitive_calls_total",
			"Invocations of each runtime primitive.", lbl)
		t.lat[p] = reg.Histogram("autonomizer_core_primitive_duration_seconds",
			"Latency of each runtime primitive.", nil, lbl)
	}
	t.fitEpochs = reg.Counter("autonomizer_nn_fit_epochs_total",
		"Completed offline-training epochs across all models.", nil)
	t.fitStep = reg.Histogram("autonomizer_nn_fit_step_duration_seconds",
		"Latency of one minibatch optimizer step inside Fit.", nil, nil)
	return t
}

// begin opens one primitive call: it bumps the call counter, starts the
// latency timer, and opens a span (nil when tracing is off). The
// returned context carries the span for child attribution.
func (t *telemetry) begin(ctx context.Context, p primitive) (context.Context, obs.Timer, *obs.Span) {
	if t == nil {
		return ctx, obs.Timer{}, nil
	}
	t.calls[p].Inc()
	ctx, sp := obs.StartSpan(ctx, "au_"+primName[p])
	return ctx, t.lat[p].Timer(), sp
}

// end closes one primitive call, recording latency, the span, and — on
// failure — the error counter keyed by the auerr class. It reads *err
// so it must be deferred before guard (deferred functions run LIFO:
// guard converts a panic into the error first, then end observes it).
func (t *telemetry) end(p primitive, tm obs.Timer, sp *obs.Span, err *error) {
	if t == nil {
		return
	}
	tm.Stop()
	sp.End(*err)
	if *err != nil {
		t.reg.Counter("autonomizer_core_primitive_errors_total",
			"Primitive failures keyed by auerr error class.",
			obs.Labels{"primitive": primName[p], "class": auerr.Class(*err)}).Inc()
	}
}

// fitLoss publishes one model's latest epoch-mean loss; called at most
// once per epoch, so the registry lookup is off the hot path. Model
// names come from the host's au_config calls — a closed, small set.
func (t *telemetry) fitLoss(model string, loss float64) {
	if t == nil {
		return
	}
	t.reg.Gauge("autonomizer_nn_fit_last_loss",
		"Mean loss of the most recent Fit epoch, per model.",
		obs.Labels{"model": model}).Set(loss)
}

// Instrument (re)binds the runtime's telemetry to reg: per-primitive
// call counters, auerr-classed error counters and latency histograms,
// plus store-size gauges. NewRuntime does this automatically against
// obs.Default(), so hosts only call Instrument to attach a private
// registry (tests, embedded collectors) or to instrument a runtime
// created before obs.Enable. A nil reg detaches (disables) telemetry.
// Not safe to call concurrently with running primitives.
func (rt *Runtime) Instrument(reg *obs.Registry) *Runtime {
	rt.tel = newTelemetry(reg)
	if reg != nil {
		// Last-registered runtime wins these process-level gauges; the
		// replace semantics of GaugeFunc release the previous runtime's
		// closure, so superseded runtimes stay collectible.
		store, models := rt.store, rt
		reg.GaugeFunc("autonomizer_db_store_bytes",
			"In-memory footprint of the database store pi.", nil,
			func() float64 { return float64(store.SizeBytes()) })
		reg.GaugeFunc("autonomizer_db_store_names",
			"Number of bound names in the database store pi.", nil,
			func() float64 { return float64(len(store.Names())) })
		reg.GaugeFunc("autonomizer_core_models",
			"Number of configured models in the model store theta.", nil,
			func() float64 { return float64(len(models.ModelNames())) })
	}
	return rt
}

// Logger returns this runtime's structured logger: a child of
// obs.Logger carrying the execution mode. Model-scoped children add a
// "model" attribute at the call sites that have one.
func (rt *Runtime) Logger() *slog.Logger { return rt.log }
