package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing is the third leg of the telemetry layer: each primitive
// Ctx form opens a span, so a trace of one au_NN call shows its parent
// (the fit, the suite runner) and its duration without a profiler
// attached. Since PR 8 spans also carry W3C-style trace identity
// (TraceID / SpanID / ParentID), so a trace survives the client's
// socket: serve.Client injects a traceparent header, the server
// continues the same TraceID, and the batcher links the engine-predict
// span to every request span it served. Tracing is opt-in separately
// from metrics (SetTracing / the -trace flag) because span records cost
// a context allocation per call; when off, StartSpan returns the
// context untouched and a nil *Span whose End is a no-op.

// tracing gates span recording; off by default.
var tracing atomic.Bool

// SetTracing switches span recording on or off, returning the previous
// setting.
func SetTracing(on bool) bool { return tracing.Swap(on) }

// TracingEnabled reports whether spans are being recorded.
func TracingEnabled() bool { return tracing.Load() }

// NewTraceID returns a random non-zero 32-hex-digit W3C trace id.
func NewTraceID() string {
	var hi, lo uint64
	for hi == 0 && lo == 0 {
		hi, lo = rand.Uint64(), rand.Uint64()
	}
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// NewSpanID returns a random non-zero 16-hex-digit W3C span id.
func NewSpanID() string {
	var v uint64
	for v == 0 {
		v = rand.Uint64()
	}
	return fmt.Sprintf("%016x", v)
}

// SpanLink points at another span (typically in another trace): the
// batch-coalescing link from one engine-predict span to the N request
// spans whose inputs it served.
type SpanLink struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Span is one timed operation. A nil *Span (tracing disabled) is safe
// to End.
type Span struct {
	name     string
	parent   string // parent span name, "" for roots and remote parents
	traceID  string
	spanID   string
	parentID string
	links    []SpanLink
	start    time.Time
}

// TraceID returns the span's 32-hex trace id ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's 16-hex span id ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// AddLink attaches a link to another span (see SpanLink). Nil-safe;
// links must be added by the span's owning goroutine before End.
func (s *Span) AddLink(traceID, spanID string) {
	if s == nil || traceID == "" || spanID == "" {
		return
	}
	s.links = append(s.links, SpanLink{TraceID: traceID, SpanID: spanID})
}

// spanContext carries the current span's identity through the context
// for parent attribution and wire propagation. name is "" for remote
// parents (continued from a traceparent header).
type spanContext struct {
	name    string
	traceID string
	spanID  string
}

// spanKey is the context key for the current *spanContext.
type spanKey struct{}

// SpanContextFrom extracts the current span identity from ctx: the
// trace and span ids a child (or an outbound request header) should
// reference. ok is false when ctx carries no span.
func SpanContextFrom(ctx context.Context) (traceID, spanID string, ok bool) {
	if ctx == nil {
		return "", "", false
	}
	sc, ok := ctx.Value(spanKey{}).(*spanContext)
	if !ok {
		return "", "", false
	}
	return sc.traceID, sc.spanID, true
}

// ContextWithRemoteParent installs a remote span identity (parsed from
// a traceparent header) as the current span context, so the next
// StartSpan continues the caller's trace. The remote parent has no
// local name; records parented on it carry only ParentID.
func ContextWithRemoteParent(ctx context.Context, traceID, spanID string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey{}, &spanContext{traceID: traceID, spanID: spanID})
}

// StartSpan opens a span and returns a context carrying it for child
// attribution. The span inherits the context's trace id (starting a
// fresh trace at roots) and records the parent span's id. With tracing
// disabled it returns ctx unchanged and a nil span, allocating nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !tracing.Load() {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &Span{name: name, spanID: NewSpanID(), start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*spanContext); ok {
		sp.parent = parent.name
		sp.traceID = parent.traceID
		sp.parentID = parent.spanID
	} else {
		sp.traceID = NewTraceID()
	}
	return context.WithValue(ctx, spanKey{}, &spanContext{name: name, traceID: sp.traceID, spanID: sp.spanID}), sp
}

// SpanRecord is one finished span in the in-memory ring.
type SpanRecord struct {
	Name     string        `json:"name"`
	Parent   string        `json:"parent,omitempty"`
	TraceID  string        `json:"trace_id,omitempty"`
	SpanID   string        `json:"span_id,omitempty"`
	ParentID string        `json:"parent_id,omitempty"`
	Links    []SpanLink    `json:"links,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// spanRingSize is how many finished spans the recent-span ring keeps.
const spanRingSize = 256

// spanRing keeps the most recent spans for /debug/spans and tests;
// once full, each new record evicts the oldest.
var spanRing struct {
	mu   sync.Mutex
	buf  [spanRingSize]SpanRecord
	next int
	n    int
}

// End closes the span: its duration lands in the
// autonomizer_span_duration_seconds histogram (when metrics are
// enabled), the recent-span ring, and the debug log. err may be nil.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if r := Default(); r != nil {
		r.Histogram("autonomizer_span_duration_seconds",
			"Duration of traced runtime spans.", nil, Labels{"span": s.name}).Observe(d.Seconds())
	}
	rec := SpanRecord{
		Name: s.name, Parent: s.parent,
		TraceID: s.traceID, SpanID: s.spanID, ParentID: s.parentID,
		Links: s.links, Start: s.start, Duration: d,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	spanRing.mu.Lock()
	spanRing.buf[spanRing.next] = rec
	spanRing.next = (spanRing.next + 1) % spanRingSize
	if spanRing.n < spanRingSize {
		spanRing.n++
	}
	spanRing.mu.Unlock()
	Logger().Debug("span", "name", s.name, "parent", s.parent, "trace", s.traceID, "dur", d, "err", err)
}

// RecentSpans returns the most recent finished spans, oldest first.
func RecentSpans() []SpanRecord {
	spanRing.mu.Lock()
	defer spanRing.mu.Unlock()
	out := make([]SpanRecord, 0, spanRing.n)
	start := spanRing.next - spanRing.n
	for i := 0; i < spanRing.n; i++ {
		out = append(out, spanRing.buf[(start+i+spanRingSize)%spanRingSize])
	}
	return out
}
