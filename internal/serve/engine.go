package serve

import (
	"context"
	"fmt"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/parallel"
)

// engine is one immutable, servable model snapshot: a Test-mode runtime
// holding the model with its plan already compiled, a pool of lock-free
// predictor replicas (private instances of that plan: shared packed
// weights, private scratch), and the snapshot's version. Reloads never
// mutate an engine; they build a new one and atomically swap the
// pointer, so an in-flight batch keeps computing on the snapshot it
// started with.
type engine struct {
	name    string
	version int
	spec    core.ModelSpec
	rt      *core.Runtime
	inSize  int
	outSize int

	// pool hands out destination-passing predictor replicas to batch
	// shards. Capacity is the replica count; a shard blocks only if more
	// shards than replicas are ever in flight, which predictBatch's
	// chunking prevents.
	pool     chan func(in, out []float64) []float64
	replicas int
}

// buildEngine constructs a servable engine from a model spec and a
// SaveModel image. Test-mode Config compiles the plan before the engine
// is published, so a hot reload installs already-packed weights and an
// uncompilable network fails the install. The runtime inside is
// deliberately detached from process-wide telemetry (WithMetrics(nil)):
// serving engines come and go with every reload and must not steal the
// host's db/model gauges.
func buildEngine(name string, spec core.ModelSpec, data []byte, version, replicas int) (*engine, error) {
	inSize, outSize, err := core.SavedModelSizes(data)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	spec.Name = name
	rt := core.NewRuntimeWith(core.Test, core.WithMetrics(nil))
	rt.LoadModel(name, data)
	if err := rt.ConfigCtx(context.Background(), spec); err != nil {
		return nil, err
	}
	if replicas < 1 {
		replicas = parallel.Workers()
	}
	e := &engine{
		name: name, version: version, spec: spec, rt: rt,
		inSize: inSize, outSize: outSize,
		pool: make(chan func(in, out []float64) []float64, replicas), replicas: replicas,
	}
	for i := 0; i < replicas; i++ {
		fn, err := rt.PredictorInto(name)
		if err != nil {
			return nil, err
		}
		e.pool <- fn
	}
	return e, nil
}

// checkInput validates one request vector against the snapshot's input
// size before it joins a batch, so one malformed request fails alone
// instead of poisoning its batchmates.
func (e *engine) checkInput(in []float64) error {
	if len(in) != e.inSize {
		return auerr.E(auerr.ErrSpecInvalid, "serve: model %q expects %d inputs, got %d",
			e.name, e.inSize, len(in))
	}
	return nil
}

// predictBatch runs one coalesced minibatch through the replica pool on
// the parallel engine: the batch is chunked across replicas, each shard
// forwards its examples independently, and outputs land at their
// request's index. Each example runs the exact same per-example forward
// pass as an in-process PredictCtx (same weights, same accumulation
// order), so batching is bit-identical by construction regardless of
// batch composition or worker count.
func (e *engine) predictBatch(ins [][]float64) [][]float64 {
	out := make([][]float64, len(ins))
	flat := make([]float64, len(ins)*e.outSize)
	for i := range out {
		out[i] = flat[i*e.outSize : (i+1)*e.outSize]
	}
	e.predictBatchInto(ins, out)
	return out
}

// predictBatchInto is the destination-passing predictBatch: outs[i] must
// have length outSize and receives the prediction for ins[i]. Beyond the
// outs buffers (which the batcher carves from one flat per-batch
// allocation), the steady-state batch performs no heap allocation — the
// replica closures write straight into their request's slot.
func (e *engine) predictBatchInto(ins, outs [][]float64) {
	if len(ins) == 1 {
		fn := <-e.pool
		outs[0] = fn(ins[0], outs[0])
		e.pool <- fn
		return
	}
	grain := (len(ins) + e.replicas - 1) / e.replicas
	parallel.For(len(ins), grain, func(lo, hi int) {
		fn := <-e.pool
		defer func() { e.pool <- fn }()
		for i := lo; i < hi; i++ {
			outs[i] = fn(ins[i], outs[i])
		}
	})
}
