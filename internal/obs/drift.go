package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DriftMonitor measures model faithfulness online: the rolling-window
// mean squared error of served predictions against the ground-truth
// observations that later flow back through WriteBack. A surrogate is
// only useful while it remains faithful and cheap; the serving layer
// measures cost (latency histograms) and this monitor measures
// faithfulness, turning "the process is up" health into "this model is
// still worth querying". When the rolling loss of a model exceeds the
// configured threshold its verdict flips unhealthy, which the serving
// layer surfaces as a not-ready /healthz?deep=1 — the hook the
// online-learning auto-rollback will pull (ROADMAP).

// DriftConfig tunes a DriftMonitor. The zero value selects the
// documented defaults.
type DriftConfig struct {
	// Window is the rolling window the loss is averaged over
	// (default 1 minute).
	Window time.Duration
	// Slices is the window's time-slice resolution (default 6).
	Slices int
	// Threshold is the rolling mean-squared-error above which a model's
	// verdict flips unhealthy. Zero (the default) records and exports
	// drift but never flips the verdict — monitor-only mode.
	Threshold float64
	// MinSamples is how many observations the window must hold before a
	// verdict is rendered (default 8): one outlier must not drain a
	// replica.
	MinSamples int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Slices < 1 {
		c.Slices = 6
	}
	if c.Threshold < 0 {
		c.Threshold = 0
	}
	if c.MinSamples < 1 {
		c.MinSamples = 8
	}
	return c
}

// DriftStatus is one model's current drift verdict.
type DriftStatus struct {
	Model     string  `json:"model"`
	Loss      float64 `json:"loss"`
	Samples   int     `json:"samples"`
	Threshold float64 `json:"threshold"`
	Healthy   bool    `json:"healthy"`
}

// driftWindow is one model's rolling loss accumulator plus its cached
// instruments. All fields are guarded by the monitor's mutex —
// recording ground truth is orders of magnitude rarer than serving
// predictions, so this is not a hot path.
type driftWindow struct {
	start  int64 // unixnano start of the current slice
	cur    int
	sums   []float64
	counts []int

	lossG    *Gauge
	healthyG *Gauge
	obsC     *Counter
}

// DriftMonitor tracks rolling prediction loss per model. A nil monitor
// is a no-op whose verdicts are always healthy. Construct with
// NewDriftMonitor; safe for concurrent use.
type DriftMonitor struct {
	cfg DriftConfig
	reg *Registry

	mu     sync.Mutex
	models map[string]*driftWindow
}

// NewDriftMonitor builds a monitor with the given config, exporting
// per-model gauges into reg (nil reg disables the metrics, keeping the
// verdict machinery).
func NewDriftMonitor(cfg DriftConfig, reg *Registry) *DriftMonitor {
	return &DriftMonitor{cfg: cfg.withDefaults(), reg: reg, models: make(map[string]*driftWindow)}
}

// Threshold reports the configured unhealthy threshold (0 on nil or in
// monitor-only mode).
func (m *DriftMonitor) Threshold() float64 {
	if m == nil {
		return 0
	}
	return m.cfg.Threshold
}

// Window reports the configured rolling window (0 on nil).
func (m *DriftMonitor) Window() time.Duration {
	if m == nil {
		return 0
	}
	return m.cfg.Window
}

// Record adds one prediction/observation pair for a model: the loss is
// the mean squared error across the vector's elements. It returns the
// model's updated status. Mismatched or empty vectors are an error and
// record nothing.
func (m *DriftMonitor) Record(model string, predicted, observed []float64) (DriftStatus, error) {
	if m == nil {
		return DriftStatus{Model: model, Healthy: true}, nil
	}
	if len(predicted) == 0 || len(predicted) != len(observed) {
		return DriftStatus{}, fmt.Errorf("obs: drift observation for %q needs matching non-empty vectors (got %d predicted, %d observed)",
			model, len(predicted), len(observed))
	}
	var loss float64
	for i, p := range predicted {
		d := p - observed[i]
		loss += d * d
	}
	loss /= float64(len(predicted))
	return m.recordAt(model, loss, time.Now().UnixNano()), nil
}

// recordAt is Record's clock-injected core (tests slide the window
// without sleeping).
func (m *DriftMonitor) recordAt(model string, loss float64, now int64) DriftStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.models[model]
	if !ok {
		w = &driftWindow{
			start:  now,
			sums:   make([]float64, m.cfg.Slices),
			counts: make([]int, m.cfg.Slices),
		}
		if m.reg != nil {
			lbl := Labels{"model": model}
			w.lossG = m.reg.Gauge("autonomizer_drift_loss",
				"Rolling-window mean squared error of served predictions against observed ground truth, per model.", lbl)
			w.healthyG = m.reg.Gauge("autonomizer_drift_healthy",
				"1 while the model's rolling drift loss is within threshold (or below the sample floor), else 0.", lbl)
			w.obsC = m.reg.Counter("autonomizer_drift_observations_total",
				"Ground-truth observations recorded against served predictions, per model.", lbl)
		}
		m.models[model] = w
	}
	m.rotate(w, now)
	w.sums[w.cur] += loss
	w.counts[w.cur]++
	st := m.statusLocked(model, w)
	w.obsC.Inc()
	w.lossG.Set(st.Loss)
	if st.Healthy {
		w.healthyG.Set(1)
	} else {
		w.healthyG.Set(0)
	}
	return st
}

// rotate advances w's slice ring to cover now.
func (m *DriftMonitor) rotate(w *driftWindow, now int64) {
	sliceDur := int64(m.cfg.Window) / int64(m.cfg.Slices)
	if sliceDur < 1 {
		sliceDur = 1
	}
	if now-w.start >= int64(m.cfg.Window)+sliceDur {
		for i := range w.sums {
			w.sums[i], w.counts[i] = 0, 0
		}
		w.start = now
		return
	}
	for now-w.start >= sliceDur {
		w.cur = (w.cur + 1) % len(w.sums)
		w.sums[w.cur], w.counts[w.cur] = 0, 0
		w.start += sliceDur
	}
}

// statusLocked computes a model's verdict; callers hold m.mu.
func (m *DriftMonitor) statusLocked(model string, w *driftWindow) DriftStatus {
	var sum float64
	var n int
	for i := range w.sums {
		sum += w.sums[i]
		n += w.counts[i]
	}
	st := DriftStatus{Model: model, Samples: n, Threshold: m.cfg.Threshold, Healthy: true}
	if n > 0 {
		st.Loss = sum / float64(n)
	}
	if m.cfg.Threshold > 0 && n >= m.cfg.MinSamples && st.Loss > m.cfg.Threshold {
		st.Healthy = false
	}
	return st
}

// Status returns one model's drift verdict; ok is false when the model
// has no observations yet.
func (m *DriftMonitor) Status(model string) (DriftStatus, bool) {
	if m == nil {
		return DriftStatus{Model: model, Healthy: true}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.models[model]
	if !ok {
		return DriftStatus{Model: model, Healthy: true}, false
	}
	m.rotate(w, time.Now().UnixNano())
	return m.statusLocked(model, w), true
}

// Statuses returns every observed model's verdict, sorted by model
// name.
func (m *DriftMonitor) Statuses() []DriftStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	now := time.Now().UnixNano()
	out := make([]DriftStatus, 0, len(m.models))
	for name, w := range m.models {
		m.rotate(w, now)
		out = append(out, m.statusLocked(name, w))
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Healthy returns nil while every observed model's verdict is healthy,
// else an error naming the first drifting model — the readiness hook.
func (m *DriftMonitor) Healthy() error {
	for _, st := range m.Statuses() {
		if !st.Healthy {
			return fmt.Errorf("obs: model %q is drifting: rolling loss %.6g exceeds threshold %.6g over %d observations",
				st.Model, st.Loss, st.Threshold, st.Samples)
		}
	}
	return nil
}
