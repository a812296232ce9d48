package obs

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The process status surface: /statusz renders a JSON snapshot of
// process-level facts plus whatever sections subsystems register, and
// /healthz splits liveness ("the process answers") from readiness
// ("every registered check passes") so a fleet router can drain a
// process that is alive but no longer fit to serve — the deep-health
// contract DESIGN.md §5h documents.

// processStart anchors the uptime field.
var processStart = time.Now()

// Uptime reports how long the process has been up.
func Uptime() time.Duration { return time.Since(processStart) }

var statusReg struct {
	mu       sync.Mutex
	sections map[string]func() any
}

// RegisterStatus adds (or replaces) a named section of the /statusz
// snapshot; fn is called at render time. A nil fn removes the section.
// Last writer wins, mirroring GaugeFunc, so a succession of subsystem
// instances can each export "the live one".
func RegisterStatus(name string, fn func() any) {
	statusReg.mu.Lock()
	defer statusReg.mu.Unlock()
	if statusReg.sections == nil {
		statusReg.sections = make(map[string]func() any)
	}
	if fn == nil {
		delete(statusReg.sections, name)
		return
	}
	statusReg.sections[name] = fn
}

// StatusSnapshot renders the /statusz document: process-level facts
// (uptime, runtime, telemetry posture) plus every registered section
// under its name.
func StatusSnapshot() map[string]any {
	out := map[string]any{
		"uptime_seconds": Uptime().Seconds(),
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"tracing":        TracingEnabled(),
		"metrics":        Default() != nil,
	}
	statusReg.mu.Lock()
	fns := make(map[string]func() any, len(statusReg.sections))
	for name, fn := range statusReg.sections {
		fns[name] = fn
	}
	statusReg.mu.Unlock()
	// Sections render outside the lock: a section callback may itself
	// take subsystem locks, and render time is not a hot path.
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

var readyReg struct {
	mu     sync.Mutex
	checks map[string]func() error
}

// RegisterReadiness adds (or replaces) a named readiness check run by
// deep health queries: fn returns nil while the subsystem is fit to
// serve. A nil fn removes the check. Liveness is never affected —
// /healthz without ?deep=1 answers 200 while the process can answer at
// all.
func RegisterReadiness(name string, fn func() error) {
	readyReg.mu.Lock()
	defer readyReg.mu.Unlock()
	if readyReg.checks == nil {
		readyReg.checks = make(map[string]func() error)
	}
	if fn == nil {
		delete(readyReg.checks, name)
		return
	}
	readyReg.checks[name] = fn
}

// ReadinessReport runs every registered check and returns the overall
// verdict plus each check's outcome ("ok" or the failure message),
// keys sorted for deterministic rendering. No checks registered means
// ready.
func ReadinessReport() (ready bool, checks map[string]string) {
	readyReg.mu.Lock()
	fns := make(map[string]func() error, len(readyReg.checks))
	for name, fn := range readyReg.checks {
		fns[name] = fn
	}
	readyReg.mu.Unlock()
	ready = true
	checks = make(map[string]string, len(fns))
	names := make([]string, 0, len(fns))
	for name := range fns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := fns[name](); err != nil {
			checks[name] = err.Error()
			ready = false
		} else {
			checks[name] = "ok"
		}
	}
	return ready, checks
}
