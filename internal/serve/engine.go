package serve

import (
	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/parallel"
)

// engine is one immutable, servable model snapshot: the model's compiled
// plan, one private instance of it per batch shard (shared packed
// weights, private scratch), and the snapshot's version. Reloads never
// mutate an engine; they build a new one and atomically swap the
// pointer, so an in-flight batch keeps computing on the snapshot it
// started with.
type engine struct {
	name    string
	version int
	spec    core.ModelSpec
	plan    *nn.Plan
	// insts[s] runs shard s of a batch. Instances are not goroutine-safe;
	// sharing them without a lock is sound because the model's collector
	// goroutine is the only caller of its engine.
	insts []*nn.PlanInstance
}

// buildEngine constructs a servable engine from a model spec and a
// SaveModel image. The plan is compiled and its instances allocated
// before the engine is published, so a hot reload installs
// already-packed weights and an uncompilable network fails the install.
// The instance count is the parallel width at install.
func buildEngine(name string, spec core.ModelSpec, data []byte, version int) (*engine, error) {
	spec.Name = name
	plan, err := core.ServingPlan(spec, data)
	if err != nil {
		return nil, err
	}
	e := &engine{name: name, version: version, spec: spec, plan: plan}
	for i := parallel.Workers(); i > 0; i-- {
		e.insts = append(e.insts, plan.NewInstance())
	}
	return e, nil
}

// checkInput validates one request vector against the snapshot's input
// size before it joins a batch, so one malformed request fails alone
// instead of poisoning its batchmates.
func (e *engine) checkInput(in []float64) error {
	if len(in) != e.plan.InSize() {
		return auerr.E(auerr.ErrSpecInvalid, "serve: model %q expects %d inputs, got %d",
			e.name, e.plan.InSize(), len(in))
	}
	return nil
}

// predictBatchInto runs one coalesced minibatch: outs[i] must have
// length OutSize and receives the prediction for ins[i]. The batch is
// split into min(rows, instances) contiguous shards, and shard s runs
// its rows on insts[s]. Each row runs the exact same plan as an
// in-process PredictCtx (same packed weights, same accumulation order),
// so batching is bit-identical by construction regardless of batch
// composition or width. Beyond the outs buffers (which the batcher
// carves from one flat per-batch allocation), a one-shard batch performs
// no heap allocation.
func (e *engine) predictBatchInto(ins, outs [][]float64) {
	shards := min(len(ins), len(e.insts))
	if shards == 1 {
		e.runShard(0, 1, ins, outs)
		return
	}
	parallel.For(shards, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			e.runShard(s, shards, ins, outs)
		}
	})
}

// runShard predicts shard s of the batch's rows on insts[s].
func (e *engine) runShard(s, shards int, ins, outs [][]float64) {
	inst := e.insts[s]
	for i := s * len(ins) / shards; i < (s+1)*len(ins)/shards; i++ {
		outs[i] = inst.PredictInto(outs[i], ins[i])
	}
}
