// Package obs is the Autonomizer runtime's telemetry layer: a
// dependency-free (stdlib-only) metrics registry, structured logging on
// log/slog, and lightweight span tracing, with HTTP endpoints exporting
// metrics in Prometheus text format, spans as JSON and profiles through
// net/http/pprof.
//
// The paper's runtime silently records features, trains and queries
// models; a production autonomized system serving real traffic has to
// answer "which primitive is slow, which model is drifting, which
// queue is backing up" without a debugger attached. Every subsystem
// of this runtime (core primitives, nn training, rl agents, the
// database store, the checkpoint manager) reports into this package.
//
// # Disabled-by-default, zero-cost when disabled
//
// Telemetry is off unless a process opts in (Enable, or the
// -telemetry flag of cmd/autonomizer). The contract, relied on by every
// instrumentation site and proven by BenchmarkObsOverhead
// (BENCH_obs.json), is:
//
//   - Default() returns nil while telemetry is disabled.
//   - Every Registry method is nil-safe and returns nil instruments.
//   - Every instrument method (Counter.Inc, Gauge.Set,
//     Histogram.Observe, Timer.Stop, Span.End, ...) is nil-safe and
//     returns immediately, before any allocation or time.Now call.
//
// So an instrumented hot path holding nil instruments pays one
// predictable nil-check branch per site and nothing else.
//
// # Metric naming
//
// All metrics follow autonomizer_<subsystem>_<name>_<unit>
// (DESIGN.md §5c): e.g. autonomizer_core_primitive_duration_seconds,
// autonomizer_serve_queue_depth, autonomizer_db_store_bytes.
// Label cardinality is bounded by construction: labels only carry
// closed vocabularies (primitive names, auerr error classes, optimizer
// names, model names from the host's au_config calls) — never inputs,
// never per-call values.
package obs

import "sync/atomic"

// def is the process-wide default registry; nil means telemetry is
// disabled, which is the zero-cost default.
var def atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil while telemetry is
// disabled. Instrumentation sites pass the result straight into
// instrument lookups; the nil short-circuits compose all the way down.
func Default() *Registry { return def.Load() }

// Enable switches process-wide telemetry on (idempotently) and returns
// the default registry. Components that cache instruments at
// construction time (runtimes, optimizers, agents) must be created
// after Enable to be observed.
func Enable() *Registry {
	if r := def.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if def.CompareAndSwap(nil, r) {
		return r
	}
	return def.Load()
}

// SetDefault replaces the default registry (nil disables telemetry) and
// returns the previous value, so tests and benchmarks can restore it
// with defer.
func SetDefault(r *Registry) *Registry { return def.Swap(r) }
