package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// The deep health/readiness surface (DESIGN.md §5h): /statusz answers
// "what exactly is this server doing" — snapshot versions, engine
// compile state, queue occupancy vs capacity, shed totals, time since
// the last hot reload, drift verdicts — and /healthz?deep=1 reduces it
// to a drain/route decision. Liveness and readiness are deliberately
// split: a drifting model makes the server not-ready (a fleet router
// should stop sending it traffic) while liveness stays 200 (nothing
// should kill the process; a reload or rollback fixes it in place).

// ModelStatus is one served model's row in the /statusz document.
type ModelStatus struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Plan is the kernel ("avx2", "generic", ...) the engine's compiled
	// plan was packed for at install time.
	Plan    string `json:"plan"`
	InSize  int    `json:"in_size"`
	OutSize int    `json:"out_size"`

	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	ShedTotal     uint64 `json:"shed_total"`

	SecondsSinceReload float64 `json:"seconds_since_reload"`

	DriftLoss    float64 `json:"drift_loss"`
	DriftSamples int     `json:"drift_samples"`
	DriftHealthy bool    `json:"drift_healthy"`
}

// Statusz is the /statusz document.
type Statusz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	Tracing       bool    `json:"tracing"`
	Kernel        string  `json:"kernel"`
	Workers       int     `json:"workers"`

	MaxBatch      int `json:"max_batch"`
	QueueCapacity int `json:"queue_capacity"`

	DriftThreshold     float64 `json:"drift_threshold"`
	DriftWindowSeconds float64 `json:"drift_window_seconds"`

	Models []ModelStatus     `json:"models"`
	Checks map[string]string `json:"checks"`
}

// Status assembles the current serving status.
func (s *Server) Status() Statusz {
	ready, checks := s.readiness()
	st := Statusz{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Ready:              ready,
		Tracing:            obs.TracingEnabled(),
		Kernel:             tensor.KernelName(),
		Workers:            parallel.Workers(),
		MaxBatch:           s.cfg.MaxBatch,
		QueueCapacity:      s.cfg.QueueDepth,
		DriftThreshold:     s.drift.Threshold(),
		DriftWindowSeconds: s.drift.Window().Seconds(),
		Checks:             checks,
	}
	for _, info := range s.Models() {
		m, ok := s.model(info.Name)
		if !ok {
			continue
		}
		eng := m.eng.Load()
		row := ModelStatus{
			Name:               m.name,
			Version:            eng.version,
			Plan:               tensor.KernelName(),
			InSize:             eng.plan.InSize(),
			OutSize:            eng.plan.OutSize(),
			QueueDepth:         m.b.depth(),
			QueueCapacity:      cap(m.b.queue),
			ShedTotal:          m.b.shed.Load(),
			SecondsSinceReload: time.Since(time.Unix(0, m.lastReload.Load())).Seconds(),
			DriftHealthy:       true,
		}
		if ds, ok := s.drift.Status(m.name); ok {
			row.DriftLoss, row.DriftSamples, row.DriftHealthy = ds.Loss, ds.Samples, ds.Healthy
		}
		st.Models = append(st.Models, row)
	}
	return st
}

// readiness runs the serving readiness checks: shutdown state plus one
// drift verdict per observed model, in the report shape
// obs.HealthzHandler renders.
func (s *Server) readiness() (bool, map[string]string) {
	checks := make(map[string]string)
	ready := true
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		checks["server"] = "closed: draining, no new work accepted"
		ready = false
	} else {
		checks["server"] = "ok"
	}
	for _, ds := range s.drift.Statuses() {
		key := "drift:" + ds.Model
		if ds.Healthy {
			checks[key] = "ok"
		} else {
			checks[key] = fmt.Sprintf("rolling loss %.6g exceeds threshold %.6g over %d observations",
				ds.Loss, ds.Threshold, ds.Samples)
			ready = false
		}
	}
	return ready, checks
}

// Ready returns nil while the server is fit to take traffic: not
// closed, and no served model's drift verdict is unhealthy. The
// programmatic form of /healthz?deep=1 — the hook a fleet router (or
// the future online-learning auto-rollback) drains on.
func (s *Server) Ready() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return errors.New("serve: server is closed")
	}
	return s.drift.Healthy()
}

// handleStatusz renders the serving status document.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	tm := s.met.timer("statusz")
	defer s.met.request("statusz", http.StatusOK, tm)
	WriteJSON(w, s.Status())
}
