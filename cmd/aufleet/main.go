// Command aufleet runs a sharded auserve fleet behind one endpoint: a
// router that consistent-hashes model names across N backends, and —
// optionally — a supervisor that spawns and babysits those backends as
// child processes (restart with exponential backoff, crash-loop
// detection). The router's HTTP surface is endpoint-compatible with a
// single auserve, and it is the one way to reach a fleet: clients point
// autonomizer.Dial at the router's URL unchanged (see internal/fleet
// and DESIGN.md §5i).
//
// Usage:
//
//	aufleet -backends http://h1:8080,http://h2:8080     route over external backends
//	aufleet -spawn 3 -worker 'auserve -demo -addr {addr}'  spawn+supervise 3 local workers
//
// Flags:
//
//	-addr :8090          router listen address
//	-backends LIST       comma-separated backend base URLs (router-only mode)
//	-spawn N             spawn N supervised workers on 127.0.0.1
//	-worker CMD          worker command template; {addr}, {port} and {index}
//	                     are substituted per worker (default "auserve -addr {addr}")
//	-port-base P         first spawned worker port (default 8100)
//	-health-interval D   per-backend deep-health probe cadence (default 250ms);
//	                     two consecutive failed probes mark a backend down and
//	                     its models rehash away
//	-log-format F        text (default) or json
//	-log-level L         debug, info (default), warn, error
//	-trace               record per-request spans (see /debug/spans)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/autonomizer/autonomizer/internal/fleet"
	"github.com/autonomizer/autonomizer/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (router-only mode)")
	spawn := flag.Int("spawn", 0, "spawn N supervised auserve workers on 127.0.0.1")
	workerTmpl := flag.String("worker", "auserve -addr {addr}", "worker command template ({addr}, {port}, {index} substituted)")
	portBase := flag.Int("port-base", 8100, "first spawned worker port")
	healthInterval := flag.Duration("health-interval", 0, "deep-health probe cadence per backend (default 250ms)")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	traceSpans := flag.Bool("trace", false, "record per-request spans (exported on /debug/spans)")
	flag.Parse()

	if err := obs.ConfigureLog(*logFormat, os.Stderr); err != nil {
		obs.Logger().Error("bad -log-format", "err", err)
		os.Exit(2)
	}
	if err := obs.SetLogLevel(*logLevel); err != nil {
		obs.Logger().Error("bad -log-level", "err", err)
		os.Exit(2)
	}
	obs.SetTracing(*traceSpans)
	log := obs.With("component", "aufleet")

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 && *spawn < 1 {
		log.Error("nothing to route: pass -backends and/or -spawn")
		os.Exit(2)
	}

	// Spawned workers join the ring next to any external backends. The
	// supervisor owns only their lifecycle; the router discovers their
	// health (including post-restart recovery) through its own probes.
	var sup *fleet.Supervisor
	if *spawn > 0 {
		sup = fleet.NewSupervisor(fleet.SupervisorConfig{
			Logger: log,
			OnStateChange: func(name string, st fleet.WorkerState) {
				if st == fleet.WorkerDead {
					log.Error("worker crash-looped into dead state; its models serve from the rehashed survivors", "worker", name)
				}
			},
		})
		defer sup.Close()
		for i := 0; i < *spawn; i++ {
			port := *portBase + i
			hostport := fmt.Sprintf("127.0.0.1:%d", port)
			argv, err := workerCommand(*workerTmpl, hostport, port, i)
			if err != nil {
				log.Error("bad -worker template", "err", err)
				os.Exit(2)
			}
			name := fmt.Sprintf("worker-%d", i)
			if err := sup.Start(fleet.WorkerSpec{Name: name, Command: argv}); err != nil {
				log.Error("worker spawn failed", "worker", name, "err", err)
				os.Exit(1)
			}
			urls = append(urls, "http://"+hostport)
		}
	}

	router := fleet.NewRouter(fleet.Config{
		Backends:       urls,
		HealthInterval: *healthInterval,
		Logger:         log,
		Supervisor:     sup,
	})
	router.Start()
	defer router.Close()

	mux := http.NewServeMux()
	obsH := obs.Handler()
	mux.Handle("/metrics", obsH)
	mux.Handle("/debug/", obsH)
	mux.Handle("/", router.Handler())

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()

	log.Info("routing", "addr", *addr, "backends", len(urls), "spawned", *spawn)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("router failed", "err", err)
		os.Exit(1)
	}
	log.Info("shut down")
}

// workerCommand expands the -worker template for one worker: {addr} →
// host:port, {port} → port, {index} → worker index, then splits on
// whitespace (worker templates are argv lists, not shell scripts — no
// quoting or expansion happens).
func workerCommand(tmpl, hostport string, port, index int) ([]string, error) {
	s := strings.NewReplacer(
		"{addr}", hostport,
		"{port}", fmt.Sprint(port),
		"{index}", fmt.Sprint(index),
	).Replace(tmpl)
	argv := strings.Fields(s)
	if len(argv) == 0 {
		return nil, fmt.Errorf("empty worker command")
	}
	return argv, nil
}
