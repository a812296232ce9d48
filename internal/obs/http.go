package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the telemetry endpoint mux:
//
//	/metrics              Prometheus text exposition of the default registry
//	/statusz              JSON process status (uptime, runtime, telemetry posture)
//	/healthz              liveness; ?deep=1 adds readiness, always ready here
//	/debug/vars           expvar JSON (Go's own memstats and cmdline)
//	/debug/pprof/...      the standard net/http/pprof profiling endpoints
//	/debug/spans          recent traced spans as JSON (see SetTracing)
//
// The handler reads Default() per request, so it can be mounted before
// Enable is called (it serves 503 until then).
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(StatusSnapshot()); err != nil {
			Logger().Error("statusz write failed", "err", err)
		}
	})
	mux.HandleFunc("/healthz", HealthzHandler(func() (bool, map[string]string) { return true, nil }))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := Default()
		if reg == nil {
			http.Error(w, "telemetry disabled; call obs.Enable or pass -telemetry", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			Logger().Error("metrics write failed", "err", err)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(RecentSpans()); err != nil {
			Logger().Error("span dump failed", "err", err)
		}
	})
	return mux
}

// healthResponse is the /healthz body: ok is liveness (always true
// when the process can answer at all), ready and checks appear only on
// deep queries.
type healthResponse struct {
	OK     bool              `json:"ok"`
	Ready  *bool             `json:"ready,omitempty"`
	Checks map[string]string `json:"checks,omitempty"`
}

// HealthzHandler builds the liveness/readiness split endpoint around a
// readiness report function: a plain GET answers 200 {"ok":true}
// (liveness — the process is up), and ?deep=1 runs the checks,
// answering 200 while all pass and 503 with per-check verdicts once
// any fails, so a fleet router can drain on readiness without killing
// on liveness. The obs handler has no checks; the serving layer and the
// fleet router wire in their own reports.
func HealthzHandler(report func() (bool, map[string]string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		resp := healthResponse{OK: true}
		deep := r.URL.Query().Get("deep")
		if deep != "" && deep != "0" {
			ready, checks := report()
			resp.Ready, resp.Checks = &ready, checks
			if !ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			Logger().Error("healthz write failed", "err", err)
		}
	}
}

// Serve runs the telemetry endpoints on addr until ctx is done, then
// shuts the server down gracefully. It blocks; callers run it in a
// goroutine next to the workload being observed.
func Serve(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		return nil
	case err := <-errc:
		return err
	}
}
