package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is one instrument's label set. Instruments are keyed by
// (name, labels); the same pair always resolves to the same instrument,
// so concurrent lookups from any number of goroutines are safe and
// cheap to cache. Keep label values to closed, low-cardinality
// vocabularies (DESIGN.md §5c).
type Labels map[string]string

// DefLatencyBuckets is the shared histogram layout for latency metrics,
// in seconds: 500 ns up to 10 s, roughly logarithmic. The primitives
// span five orders of magnitude (an au_extract is sub-microsecond, a
// CNN Fit epoch is seconds), so one fixed layout keeps every duration
// histogram comparable.
var DefLatencyBuckets = []float64{
	5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// DefSizeBuckets is the shared layout for byte-size histograms: 64 B up
// to 256 MB in powers of four.
var DefSizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// ExpBuckets builds n exponential histogram bounds: start, start*factor,
// start*factor², … — the layout for count-shaped distributions with a
// known geometric range (e.g. the serving layer's batch sizes, 1…2^k).
// n < 1 returns nil (the default layout); factor ≤ 1 is clamped to 2.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if factor <= 1 {
		factor = 2
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Counter is a monotonically increasing uint64 metric. The zero method
// set on a nil *Counter is a no-op, which is the disabled fast path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. Nil-safe like
// Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are fixed at
// registration, observation is lock-free (one atomic add per
// observation plus a CAS for the sum), and the Prometheus cumulative
// form is computed at export time.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~22) and the branch
	// predictor does well on latency-shaped data; binary search is not
	// worth the extra misprediction on short layouts.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	if i == len(h.bounds) {
		h.inf.Add(1)
	} else {
		h.counts[i].Add(1)
	}
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Timer times one operation into a duration histogram. The nil-receiver
// path allocates nothing and never reads the clock, so a disabled
// runtime pays only the branch:
//
//	tm := hist.Timer() // zero Timer when hist is nil
//	defer tm.Stop()
type Timer struct {
	h     *Histogram
	start time.Time
}

// Timer starts timing; Stop records the elapsed seconds.
func (h *Histogram) Timer() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time. A zero Timer is a no-op.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start).Seconds())
}

// metricKind tags a family's instrument type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (name, labels) instrument inside a family.
type series struct {
	labels  string // canonical rendered label block, e.g. {a="b",c="d"}
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series
	order   []string // registration-independent sorted keys, maintained on insert
}

// Registry holds metric families and renders them. All methods are safe
// for concurrent use and nil-safe: a nil *Registry returns nil
// instruments, which are themselves no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	mismatch atomic.Uint64 // registrations dropped due to name/kind conflicts
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and series for (name, labels),
// returning nil when the name is already registered with a different
// kind (the conflicting site gets a no-op instrument rather than a
// panic or a corrupt exposition).
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels Labels) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		r.mismatch.Add(1)
		return nil
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge, kindGaugeFunc:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: append([]float64(nil), f.buckets...)}
			h.counts = make([]atomic.Uint64, len(h.bounds))
			s.hist = h
		}
		f.series[key] = s
		i := sort.SearchStrings(f.order, key)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = key
	}
	return s
}

// Counter returns the counter for (name, labels), registering it on
// first use. Returns nil (a no-op counter) on a nil registry or a kind
// conflict.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindCounter, nil, labels)
	if s == nil {
		return nil
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), registering it on first
// use. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindGauge, nil, labels)
	if s == nil {
		return nil
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time (store sizes, queue depths). Re-registering the same
// (name, labels) replaces the callback — last writer wins — so a
// succession of runtimes can each export "the live store", with earlier
// closures (and whatever they capture) released for collection.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.lookup(name, help, kindGaugeFunc, nil, labels)
	if s == nil {
		return
	}
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// registering it on first use with the given ascending bucket upper
// bounds (nil selects DefLatencyBuckets). Buckets are fixed by the
// first registration of the family. Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	s := r.lookup(name, help, kindHistogram, buckets, labels)
	if s == nil {
		return nil
	}
	return s.hist
}

// Mismatches reports how many instrument registrations were dropped
// because a metric name was reused with a different kind.
func (r *Registry) Mismatches() uint64 {
	if r == nil {
		return 0
	}
	return r.mismatch.Load()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels produces the canonical sorted label block, "" for empty.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withExtraLabel splices one more label pair into a rendered label
// block (used for histogram le labels).
func withExtraLabel(block, key, value string) string {
	pair := key + `="` + value + `"`
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// fmtFloat renders a sample value the way Prometheus clients do.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			s := f.series[key]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, fmtFloat(s.gauge.Value()))
			case kindGaugeFunc:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, fmtFloat(v))
			case kindHistogram:
				h := s.hist
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withExtraLabel(s.labels, "le", fmtFloat(bound)), cum)
				}
				cum += h.inf.Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withExtraLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, fmtFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, cum)
			}
		}
	}
	r.mu.Unlock()

	_, err := io.WriteString(w, b.String())
	return err
}
