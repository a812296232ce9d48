package obs

import (
	"runtime"
	"time"
)

// The process status surface: /statusz renders a JSON snapshot of
// process-level facts. The obs handler's /healthz has no checks of its
// own, so its deep query always answers ready; the serving layer and the
// fleet router mount HealthzHandler with their own readiness reports
// (drift verdicts, shutdown, live backends) — the deep-health contract
// DESIGN.md §5h documents.

// processStart anchors the uptime field.
var processStart = time.Now()

// Uptime reports how long the process has been up.
func Uptime() time.Duration { return time.Since(processStart) }

// StatusSnapshot renders the /statusz document: process-level facts
// (uptime, runtime, telemetry posture).
func StatusSnapshot() map[string]any {
	return map[string]any{
		"uptime_seconds": Uptime().Seconds(),
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"tracing":        TracingEnabled(),
		"metrics":        Default() != nil,
	}
}
