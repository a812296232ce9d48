// Command auserve is the Autonomizer model server: it loads trained
// model snapshots and serves the query-side primitives over HTTP,
// coalescing concurrent Predict traffic into minibatches. Each served
// model is its compiled plan, with one plan instance per shard of a
// batch; the shard count is GOMAXPROCS at install. See internal/serve
// and DESIGN.md §5d.
//
// Usage:
//
//	auserve -snapshot models.ausn                 serve a snapshot file
//	auserve -demo                                 serve a built-in demo model
//	auserve -demo -snapshot demo.ausn             also export the demo snapshot (enables source reloads)
//
// Endpoints: POST /v1/predict, POST /v1/act, POST /v1/observe,
// GET /v1/models, POST /models/{name}/reload, GET /healthz (?deep=1
// adds readiness), GET /statusz, plus the obs telemetry surface
// (/metrics, /debug/vars, /debug/pprof, /debug/spans).
//
// Flags:
//
//	-addr :8080         listen address
//	-snapshot PATH      snapshot file to serve (and reload from)
//	-demo               train and install a small deterministic demo model
//	-max-batch N        batch size cap (default 32)
//	-queue N            per-model queue depth; overflow sheds 429 (default 256)
//	-drift-threshold T  rolling MSE above which a model turns not-ready (default: monitor-only)
//	-drift-window D     rolling window drift loss is averaged over (default 1m)
//	-log-format F       text (default) or json
//	-log-level L        debug, info (default), warn, error
//	-trace              record per-request spans (see /debug/spans)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/obs"
	"github.com/autonomizer/autonomizer/internal/serve"
	"github.com/autonomizer/autonomizer/internal/stats"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapshot := flag.String("snapshot", "", "model snapshot file to serve (written first when -demo is set and the file is absent)")
	demo := flag.Bool("demo", false, "train and install a small deterministic demo model")
	maxBatch := flag.Int("max-batch", 0, "max requests coalesced into one batch (default 32)")
	queue := flag.Int("queue", 0, "per-model queue depth before load shedding (default 256)")
	driftThreshold := flag.Float64("drift-threshold", 0, "rolling drift MSE above which a model flips /healthz?deep=1 not-ready (0: monitor-only)")
	driftWindow := flag.Duration("drift-window", 0, "rolling window drift loss is averaged over (default 1m)")
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
	log := obs.With("component", "auserve")
	if !*demo && *snapshot == "" {
		log.Error("nothing to serve: pass -snapshot and/or -demo")
		os.Exit(2)
	}

	// The batch-size histogram and queue gauges are the whole point of
	// running a server; telemetry is always on here.
	reg := obs.Enable()
	srv := serve.NewServer(serve.Config{
		MaxBatch:   *maxBatch,
		QueueDepth: *queue,
		Source:     snapshotSource(*snapshot),
		Registry:   reg,
		Logger:     log,

		DriftThreshold: *driftThreshold,
		DriftWindow:    *driftWindow,
	})
	defer srv.Close()

	if *demo {
		if err := installDemo(srv, *snapshot); err != nil {
			log.Error("demo model setup failed", "err", err)
			os.Exit(1)
		}
	}
	if *snapshot != "" {
		if n, err := loadSnapshotFile(srv, *snapshot); err != nil {
			// With -demo the snapshot may legitimately not pre-exist; the
			// demo installer has already written it in that case.
			log.Error("snapshot load failed", "path", *snapshot, "err", err)
			os.Exit(1)
		} else {
			log.Info("snapshot loaded", "path", *snapshot, "models", n)
		}
	}

	mux := http.NewServeMux()
	obsH := obs.Handler()
	mux.Handle("/metrics", obsH)
	mux.Handle("/debug/", obsH)
	mux.Handle("/", srv.Handler())

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()

	log.Info("serving", "addr", *addr, "models", len(srv.Models()))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("server failed", "err", err)
		os.Exit(1)
	}
	log.Info("shut down")
}

// snapshotSource wires the snapshot file in as the hot-reload source,
// so POST /models/{name}/reload with an empty body re-reads it.
func snapshotSource(path string) serve.Source {
	if path == "" {
		return nil
	}
	return serve.FileSource(path)
}

// loadSnapshotFile installs every model of the snapshot file.
func loadSnapshotFile(srv *serve.Server, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return srv.LoadSnapshot(f)
}

// demoSpec is the demo model's serving spec: a small supervised DNN
// (4 inputs, two hidden layers, 2 outputs).
var demoSpec = core.ModelSpec{Name: "demo", Algo: core.AdamOpt, Hidden: []int{16, 8}, LR: 0.01}

// installDemo trains the deterministic demo model (fixed seeds, fixed
// synthetic regression task), installs it, and — when a snapshot path
// was given and the file does not exist yet — exports it so source
// reloads and external clients have a snapshot on disk.
func installDemo(srv *serve.Server, snapshotPath string) error {
	data, err := trainDemo()
	if err != nil {
		return err
	}
	if _, err := srv.Install("demo", demoSpec, data); err != nil {
		return err
	}
	if snapshotPath == "" {
		return nil
	}
	if _, err := os.Stat(snapshotPath); err == nil {
		return nil // pre-existing snapshot wins; LoadSnapshot will read it
	}
	f, err := os.Create(snapshotPath)
	if err != nil {
		return fmt.Errorf("auserve: create snapshot: %w", err)
	}
	defer f.Close()
	return serve.WriteSnapshot(f, []serve.SnapshotModel{{Name: "demo", Spec: demoSpec, Data: data}})
}

// trainDemo fits the demo model on a synthetic task: predict
// [x0+x1, x2*x3] from 4 uniform inputs. Everything is seeded, so every
// auserve process serves bit-identical demo weights.
func trainDemo() ([]byte, error) {
	rt := core.NewRuntimeWith(core.Train, core.WithSeed(42), core.WithMetrics(nil))
	if err := rt.ConfigCtx(context.Background(), demoSpec); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(43)
	for i := 0; i < 512; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if err := rt.RecordExample("demo", x, []float64{x[0] + x[1], x[2] * x[3]}); err != nil {
			return nil, err
		}
	}
	if _, err := rt.FitCtx(context.Background(), "demo", 10, 32); err != nil {
		return nil, err
	}
	return rt.SaveModel("demo")
}
