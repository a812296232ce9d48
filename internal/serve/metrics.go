package serve

import (
	"strconv"

	"github.com/autonomizer/autonomizer/internal/obs"
)

// serveStage enumerates the per-stage latency decomposition of one
// served request: time queued, time the batch spent assembling (its
// oldest member's wait), time inside the engine forward pass, time
// encoding the response. The names are the closed vocabulary of the
// "stage" label.
type serveStage int

const (
	stageQueueWait serveStage = iota
	stageBatchAssemble
	stageEnginePredict
	stageResponseEncode
	nServeStages
)

var stageName = [nServeStages]string{
	"queue_wait", "batch_assemble", "engine_predict", "response_encode",
}

// metricsSet holds the serving layer's pre-registered instruments. A nil
// *metricsSet (no registry — telemetry disabled) short-circuits every
// method, matching the zero-cost-when-disabled contract of the rest of
// the runtime (DESIGN.md §5c).
type metricsSet struct {
	reg *obs.Registry

	// batchSize is the dynamic batcher's headline distribution: how many
	// requests each dispatched batch coalesced. The smoke gate asserts
	// this shows batches above 1 under concurrent load.
	batchSize *obs.Histogram
	batches   *obs.Counter
	overloads *obs.Counter
	stages    [nServeStages]*obs.Histogram
}

func newMetricsSet(reg *obs.Registry) *metricsSet {
	if reg == nil {
		return nil
	}
	m := &metricsSet{
		reg: reg,
		batchSize: reg.Histogram("autonomizer_serve_batch_size",
			"Requests coalesced into each dispatched inference batch.",
			obs.ExpBuckets(1, 2, 8), nil),
		batches: reg.Counter("autonomizer_serve_batches_total",
			"Inference batches dispatched by the micro-batcher.", nil),
		overloads: reg.Counter("autonomizer_serve_overloaded_total",
			"Requests rejected by backpressure (bounded queue full).", nil),
	}
	for st := serveStage(0); st < nServeStages; st++ {
		m.stages[st] = reg.Histogram("autonomizer_serve_stage_duration_seconds",
			"Per-stage latency decomposition of served requests (queue wait, batch assembly as the oldest member's wait, engine predict, response encode).",
			nil, obs.Labels{"stage": stageName[st]})
	}
	return m
}

// stageObserve records one stage duration in seconds.
func (m *metricsSet) stageObserve(st serveStage, secs float64) {
	if m == nil {
		return
	}
	m.stages[st].Observe(secs)
}

// stageTimer starts a stage timer (zero Timer when disabled).
func (m *metricsSet) stageTimer(st serveStage) obs.Timer {
	if m == nil {
		return obs.Timer{}
	}
	return m.stages[st].Timer()
}

// modelLatency returns the per-model end-to-end latency histogram. A
// windowed quantile is histogram_quantile over rate(..._bucket[1m]),
// and the buckets sum across the workers behind a fleet router.
func (m *metricsSet) modelLatency(model string) *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.reg.Histogram("autonomizer_serve_model_latency_seconds",
		"Latency of served predict requests, per model (submit to batch completion).",
		nil, obs.Labels{"model": model})
}

// shedCounter returns the per-model load-shed counter.
func (m *metricsSet) shedCounter(model string) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter("autonomizer_serve_shed_total",
		"Requests shed by backpressure, per model (bounded queue full).",
		obs.Labels{"model": model})
}

// request counts one finished HTTP request by endpoint and status code
// and times it. Label values are a closed vocabulary (fixed endpoint
// names, HTTP status codes), so cardinality stays bounded.
func (m *metricsSet) request(endpoint string, code int, tm obs.Timer) {
	tm.Stop()
	if m == nil {
		return
	}
	m.reg.Counter("autonomizer_serve_requests_total",
		"Serving-layer HTTP requests by endpoint and status code.",
		obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}).Inc()
}

// timer starts the per-endpoint latency timer (zero Timer when
// disabled).
func (m *metricsSet) timer(endpoint string) obs.Timer {
	if m == nil {
		return obs.Timer{}
	}
	return m.reg.Histogram("autonomizer_serve_request_duration_seconds",
		"Serving-layer HTTP request latency by endpoint.",
		nil, obs.Labels{"endpoint": endpoint}).Timer()
}

// modelVersion publishes the live snapshot version of one model.
func (m *metricsSet) modelVersion(model string, version int) {
	if m == nil {
		return
	}
	m.reg.Gauge("autonomizer_serve_model_version",
		"Live snapshot version of each served model (bumped by reloads).",
		obs.Labels{"model": model}).Set(float64(version))
}

// queueDepth registers the live queue-depth gauge for one model's
// batcher; GaugeFunc replace semantics make re-registration on reload
// harmless.
func (m *metricsSet) queueDepth(model string, fn func() float64) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("autonomizer_serve_queue_depth",
		"Requests waiting in each model's batching queue.",
		obs.Labels{"model": model}, fn)
}

// overloaded counts one request shed by backpressure.
func (m *metricsSet) overloaded() {
	if m == nil {
		return
	}
	m.overloads.Inc()
}

// observeBatch records one dispatched batch of size requests.
func (m *metricsSet) observeBatch(size int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchSize.Observe(float64(size))
}
