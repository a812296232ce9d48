package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
)

// batchCall is one request's slot in the batching queue. The submitter
// blocks on done; the collector fills out/err and closes it.
type batchCall struct {
	ctx  context.Context
	in   []float64
	out  []float64
	err  error
	enq  time.Time
	done chan struct{}
}

// batcher is the dynamic micro-batcher for one served model. Batch
// when busy (DESIGN.md §5d): the collector blocks for one request, then
// takes whatever else is already queued, up to maxBatch, and dispatches
// at once — it never waits for company. A lone request on an idle
// batcher therefore runs as a batch of one with no added latency, while
// requests that arrive during a batch queue up and become the next
// batch, so coalescing grows with load. Backpressure is a bounded
// queue: submit on a full queue fails immediately with
// auerr.ErrOverloaded rather than queuing unboundedly.
type batcher struct {
	model    *servedModel
	queue    chan *batchCall
	maxBatch int
	met      *metricsSet

	// shed counts requests rejected by backpressure for this model —
	// the /statusz shed figure; shedC is its metric twin (nil-safe).
	shed  atomic.Uint64
	shedC *obs.Counter

	stop    chan struct{}
	stopped sync.WaitGroup
	closed  atomic.Bool
}

func newBatcher(m *servedModel, maxBatch, depth int, met *metricsSet) *batcher {
	b := &batcher{
		model:    m,
		queue:    make(chan *batchCall, depth),
		maxBatch: maxBatch,
		met:      met,
		shedC:    met.shedCounter(m.name),
		stop:     make(chan struct{}),
	}
	b.stopped.Add(1)
	go b.loop()
	return b
}

// depth reports the live queue occupancy (the queue-depth gauge).
func (b *batcher) depth() int { return len(b.queue) }

// submit enqueues one request and blocks until its batch executes or
// ctx is done. A full queue rejects immediately with ErrOverloaded (the
// HTTP surface turns that into 429); a canceled caller stops waiting —
// the collector may still compute the batch, but the result is
// discarded.
func (b *batcher) submit(ctx context.Context, in []float64) ([]float64, error) {
	if b.closed.Load() {
		return nil, auerr.E(auerr.ErrUnknownModel, "serve: model %q is shutting down", b.model.name)
	}
	c := &batchCall{ctx: ctx, in: in, enq: time.Now(), done: make(chan struct{})}
	select {
	case b.queue <- c:
	default:
		b.shed.Add(1)
		b.shedC.Inc()
		b.met.overloaded()
		return nil, auerr.E(auerr.ErrOverloaded, "serve: model %q queue full (%d waiting)",
			b.model.name, cap(b.queue))
	}
	select {
	case <-c.done:
		return c.out, c.err
	case <-ctx.Done():
		return nil, auerr.Canceled(ctx)
	}
}

// close stops the collector and fails whatever was still queued. Safe
// to call once; submit refuses new work afterwards.
func (b *batcher) close() {
	if b.closed.Swap(true) {
		return
	}
	close(b.stop)
	b.stopped.Wait()
	for {
		select {
		case c := <-b.queue:
			c.err = auerr.E(auerr.ErrUnknownModel, "serve: model %q is shutting down", b.model.name)
			close(c.done)
		default:
			return
		}
	}
}

// loop is the collector goroutine: block for the first request, take
// whatever else is already queued up to maxBatch without blocking, then
// execute and fan the results back out.
func (b *batcher) loop() {
	defer b.stopped.Done()
	for {
		var first *batchCall
		select {
		case first = <-b.queue:
		case <-b.stop:
			return
		}
		batch := append(make([]*batchCall, 0, b.maxBatch), first)
	drain:
		for len(batch) < b.maxBatch {
			select {
			case c := <-b.queue:
				batch = append(batch, c)
			default:
				break drain
			}
		}
		b.execute(batch)
	}
}

// execute runs one coalesced batch on the engine current at dispatch
// time. Requests whose context died in the queue, or whose input does
// not match the engine's snapshot, fail individually; the survivors run
// as one minibatch on the engine's plan instances. A panic escaping the kernels is
// recovered here and surfaced as ErrInvariant on every member — one
// poisoned batch must not take down the collector.
//
// Observability: every member's queue wait and the batch's assembly
// time (its oldest member's wait) land in the per-stage histograms,
// and — when tracing is on — the batch opens a serve.batch span
// continuing the first live request's trace, with a
// serve.engine_predict child carrying one span link per coalesced
// request, so a trace shows exactly which batchmates shared the
// forward pass.
func (b *batcher) execute(batch []*batchCall) {
	eng := b.model.eng.Load()
	b.met.observeBatch(len(batch))
	if b.met != nil {
		now := time.Now()
		for _, c := range batch {
			b.met.stageObserve(stageQueueWait, now.Sub(c.enq).Seconds())
		}
		b.met.stageObserve(stageBatchAssemble, now.Sub(batch[0].enq).Seconds())
	}

	live := batch[:0]
	for _, c := range batch {
		if c.ctx != nil && c.ctx.Err() != nil {
			c.err = auerr.Canceled(c.ctx)
		} else {
			c.err = eng.checkInput(c.in)
		}
		if c.err != nil {
			close(c.done)
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	var bsp, psp *obs.Span
	if obs.TracingEnabled() {
		bctx, sp := obs.StartSpan(live[0].ctx, "serve.batch")
		bsp = sp
		_, psp = obs.StartSpan(bctx, "serve.engine_predict")
		for _, c := range live {
			if tid, sid, ok := obs.SpanContextFrom(c.ctx); ok {
				psp.AddLink(tid, sid)
			}
		}
	}
	// One flat allocation per batch holds every member's output; the
	// plan instances write straight into the per-request slots, so the
	// cost amortizes over the whole batch instead of one alloc per call.
	ins := make([][]float64, len(live))
	outs := make([][]float64, len(live))
	outSize := eng.plan.OutSize()
	flat := make([]float64, len(live)*outSize)
	for i, c := range live {
		ins[i] = c.in
		outs[i] = flat[i*outSize : (i+1)*outSize]
	}
	var batchErr error
	tm := b.met.stageTimer(stageEnginePredict)
	func() {
		defer func() {
			if r := recover(); r != nil {
				batchErr = auerr.FromPanic(r)
				for _, c := range live {
					c.err = batchErr
				}
			}
		}()
		eng.predictBatchInto(ins, outs)
		for i, c := range live {
			c.out = outs[i]
		}
	}()
	tm.Stop()
	psp.End(batchErr)
	bsp.End(batchErr)
	for _, c := range live {
		close(c.done)
	}
}
