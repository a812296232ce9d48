package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// trace holds the spans the benchmark records around its own calls into
// each layer. Spans are grouped by phase (train, deploy, light, ...), so
// the same span name keeps separate aggregates per phase. A nil *trace,
// and every nil *tracer it hands out, is the untraced run: each method
// returns at once without reading the clock.
type trace struct {
	epoch time.Time

	ids   atomic.Uint64
	roots atomic.Uint64

	mu      sync.Mutex
	phases  map[string]*tracer
	records []spanRecord
}

// tracer is one phase's view of a trace.
type tracer struct {
	t     *trace
	phase string
	agg   map[string]*spanAgg // guarded by t.mu
}

// spanAgg aggregates every span of one name in one phase.
type spanAgg struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// spanRecord is one kept span; times are nanoseconds since the epoch.
type spanRecord struct {
	Phase  string `json:"phase"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span. Children must end before their parent, and a
// parent's children must not overlap, so self time is duration minus the
// children's summed durations.
type span struct {
	trace, id, parent uint64
	name              string
	start             time.Time
	children          time.Duration
	keep              bool
}

// keepEvery: full records are kept for every keepEvery-th root span and
// its children; every span counts in the aggregates.
const keepEvery = 100

func newTrace() *trace {
	return &trace{epoch: time.Now(), phases: map[string]*tracer{}}
}

// phase returns the tracer for one phase (nil on a nil trace).
func (t *trace) phase(name string) *tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.phases[name]
	if !ok {
		tr = &tracer{t: t, phase: name, agg: map[string]*spanAgg{}}
		t.phases[name] = tr
	}
	return tr
}

// now reads the clock only when tracing.
func (tr *tracer) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// open starts a root span at start.
func (tr *tracer) open(name string, start time.Time) span {
	if tr == nil {
		return span{}
	}
	id := tr.t.ids.Add(1)
	n := tr.t.roots.Add(1)
	return span{trace: n, id: id, name: name, start: start, keep: n%keepEvery == 0}
}

// step records a child of parent named name over [start, now) and returns
// now, so consecutive calls chain one clock read per boundary.
func (tr *tracer) step(parent *span, name string, start time.Time) time.Time {
	if tr == nil {
		return time.Time{}
	}
	end := time.Now()
	tr.child(parent, name, start, end)
	return end
}

// child records a finished child of parent over [start, end).
func (tr *tracer) child(parent *span, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	s := span{trace: parent.trace, id: tr.t.ids.Add(1), parent: parent.id, name: name, start: start, keep: parent.keep}
	tr.finish(&s, end)
	parent.children += end.Sub(start)
}

// close ends a root span at end.
func (tr *tracer) close(s *span, end time.Time) {
	if tr == nil {
		return
	}
	tr.finish(s, end)
}

func (tr *tracer) finish(s *span, end time.Time) {
	d := end.Sub(s.start)
	tr.t.mu.Lock()
	defer tr.t.mu.Unlock()
	a, ok := tr.agg[s.name]
	if !ok {
		a = &spanAgg{}
		tr.agg[s.name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - s.children
	if s.keep {
		tr.t.records = append(tr.t.records, spanRecord{
			Phase: tr.phase, Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.Sub(tr.t.epoch).Nanoseconds(), End: end.Sub(tr.t.epoch).Nanoseconds(),
		})
	}
}

// meanUS reports the mean duration of the named spans in the phase, in
// microseconds (0 when there are none).
func (tr *tracer) meanUS(name string) float64 {
	a := tr.get(name)
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total.Nanoseconds()) / float64(a.Count) / 1e3
}

// get returns a copy of the named aggregate (zero when absent).
func (tr *tracer) get(name string) spanAgg {
	if tr == nil {
		return spanAgg{}
	}
	tr.t.mu.Lock()
	defer tr.t.mu.Unlock()
	if a, ok := tr.agg[name]; ok {
		return *a
	}
	return spanAgg{}
}

// traceFile is the JSON written by -trace-out.
type traceFile struct {
	Aggregates map[string]map[string]spanAgg `json:"aggregates"`
	Spans      []spanRecord                  `json:"spans"`
}

// snapshot copies the aggregates and kept records, records sorted by
// start time.
func (t *trace) snapshot() traceFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{Aggregates: map[string]map[string]spanAgg{}}
	for name, tr := range t.phases {
		m := map[string]spanAgg{}
		for k, a := range tr.agg {
			m[k] = *a
		}
		f.Aggregates[name] = m
	}
	f.Spans = append([]spanRecord(nil), t.records...)
	sort.Slice(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	return f
}

// writeFile writes the snapshot as JSON.
func (t *trace) writeFile(path string) error {
	data, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
