// compile.go is the serving half of the two-representation architecture
// (DESIGN.md §5g). A *Network is the training representation: mutable
// weights, per-layer caches for the backward pass, kernels that pack
// operands on every call. A *Plan is the compiled serving
// representation built from a network at a fixed input shape: weights
// are packed into the active kernel's layout exactly once, every buffer
// is pre-sized from the compile-time shape walk, and the ops run
// sequentially — parallelism lives above the plan (one instance per
// goroutine), not inside it — so a steady-state PredictInto performs
// zero allocations.
//
// A Plan snapshots the weights: training a network after compiling it
// does not change the plan. Publishing new weights means compiling a new
// plan; that is what internal/core does on every weight publish and what
// internal/serve does at snapshot install.
//
// Determinism contract: a plan's output is bit-identical to
// Network.Forward on the same weights at every width — the packed dense
// op reproduces Dot's two-rounding multiply-then-add fold, the packed
// conv op reproduces the im2col×weights FMA fold, and the activation,
// pooling and bias ops call the very kernels the layers' Forward calls.
// Enforced by compile_test.go.
package nn

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Plan is an immutable compiled inference plan: packed weight snapshots
// plus the op sequence and buffer geometry for one input shape. A Plan
// holds no mutable state — share it freely; to execute it, create one
// *PlanInstance per goroutine with NewInstance.
type Plan struct {
	inSize  int
	outSize int
	layers  []compiledLayer
}

// compiledLayer is the shared, immutable per-layer compile result; newOp
// binds it to fresh per-instance scratch.
type compiledLayer interface {
	newOp() planOp
}

// planOp executes one layer step for one instance. run must not write to
// in (identity ops return it unchanged); the returned slice is op-owned
// and valid until the op runs again.
type planOp interface {
	run(in []float64) []float64
}

// Compile builds the serving plan for net at the given input shape
// (omitted shape means a flat vector sized by the first layer). It
// returns an error when the stack contains a layer kind the compiler
// does not know or the shape walk fails; internal/core reports that as
// an invalid spec.
func Compile(net *Network, inShape ...int) (*Plan, error) {
	if len(net.layers) == 0 {
		return nil, fmt.Errorf("nn: compile of empty network")
	}
	if len(inShape) == 0 {
		d, ok := net.layers[0].(*Dense)
		if !ok {
			return nil, fmt.Errorf("nn: compile needs an input shape for a %s first layer", net.layers[0].Name())
		}
		inShape = []int{d.InSize}
	}
	p := &Plan{inSize: 1}
	for _, d := range inShape {
		if d <= 0 {
			return nil, fmt.Errorf("nn: compile input shape %v", inShape)
		}
		p.inSize *= d
	}
	shape := inShape
	for _, l := range net.layers {
		cl, outShape, err := compileLayer(l, shape)
		if err != nil {
			return nil, err
		}
		if cl != nil { // identity layers compile to nothing
			// Peephole: fold a ReLU straight into a preceding conv's
			// bias pass (addBias withReLU).
			if _, ok := l.(*ReLU); ok && len(p.layers) > 0 {
				if cc, ok := p.layers[len(p.layers)-1].(*cConv); ok && !cc.fuseReLU {
					cc.fuseReLU = true
					shape = outShape
					continue
				}
			}
			p.layers = append(p.layers, cl)
		}
		shape = outShape
	}
	p.outSize = 1
	for _, d := range shape {
		p.outSize *= d
	}
	return p, nil
}

// compileLayer lowers one layer at the given input shape, returning the
// shared compile result (nil for identity) and the output shape.
func compileLayer(l Layer, shape []int) (compiledLayer, []int, error) {
	size := 1
	for _, d := range shape {
		size *= d
	}
	switch l := l.(type) {
	case *Dense:
		if size != l.InSize {
			return nil, nil, fmt.Errorf("nn: compile dense expects %d inputs, got %v", l.InSize, shape)
		}
		return &cDense{pd: tensor.PackDense(l.weights, l.bias)}, []int{l.OutSize}, nil
	case *Conv2D:
		if len(shape) != 3 || shape[0] != l.InC {
			return nil, nil, fmt.Errorf("nn: compile conv2d expects (%d,H,W), got %v", l.InC, shape)
		}
		h, w := shape[1], shape[2]
		outH := tensor.ConvOutputSize(h, l.KH, l.Stride, l.Pad)
		outW := tensor.ConvOutputSize(w, l.KW, l.Stride, l.Pad)
		if outH <= 0 || outW <= 0 {
			return nil, nil, fmt.Errorf("nn: compile conv2d kernel too large for %v", shape)
		}
		geom := tensor.NewConvGeom(l.InC, h, w, l.KH, l.KW, l.Stride, l.Pad, l.OutC)
		return &cConv{
			pc:   tensor.PrepackConv(l.weights, geom),
			bias: append([]float64(nil), l.bias.Data()...),
		}, []int{l.OutC, outH, outW}, nil
	case *MaxPool2D:
		if len(shape) != 3 {
			return nil, nil, fmt.Errorf("nn: compile maxpool expects (C,H,W), got %v", shape)
		}
		c, h, w := shape[0], shape[1], shape[2]
		oh, ow := h/l.Size, w/l.Size
		if oh == 0 || ow == 0 {
			return nil, nil, fmt.Errorf("nn: compile maxpool window %d too large for %v", l.Size, shape)
		}
		return &cPool{size: l.Size, c: c, h: h, w: w, outSize: c * oh * ow}, []int{c, oh, ow}, nil
	case *ReLU:
		return &cMap{f: reluInto, size: size}, shape, nil
	case *LeakyReLU:
		alpha := l.Alpha // snapshot, like the weights
		return &cMap{f: func(dst, src []float64) { leakyReLUInto(dst, src, alpha) }, size: size}, shape, nil
	case *Sigmoid:
		return &cMap{f: sigmoidInto, size: size}, shape, nil
	case *Tanh:
		return &cMap{f: tanhInto, size: size}, shape, nil
	case *Softmax:
		return &cMap{f: softmaxInto, size: size}, shape, nil
	case *Flatten:
		return nil, []int{size}, nil
	case *Dropout:
		// Serving is inference: dropout is the identity, exactly like the
		// layer's own non-training Forward.
		return nil, shape, nil
	default:
		return nil, nil, fmt.Errorf("nn: cannot compile layer %s", l.Name())
	}
}

// InSize returns the flat input length.
func (p *Plan) InSize() int { return p.inSize }

// OutSize returns the flat output length.
func (p *Plan) OutSize() int { return p.outSize }

// NewInstance allocates the per-goroutine execution state: one op per
// compiled layer, each with pre-sized scratch, all sharing the plan's
// packed weights. Instances are not goroutine-safe; the plan is.
func (p *Plan) NewInstance() *PlanInstance {
	inst := &PlanInstance{plan: p}
	for _, cl := range p.layers {
		inst.ops = append(inst.ops, cl.newOp())
	}
	return inst
}

// PlanInstance executes a compiled plan with instance-owned buffers.
type PlanInstance struct {
	plan *Plan
	ops  []planOp
}

// Plan returns the shared compiled plan this instance executes.
func (pi *PlanInstance) Plan() *Plan { return pi.plan }

// Predict runs the plan over a flat input vector, returning a fresh
// output slice. See PredictInto.
func (pi *PlanInstance) Predict(in []float64) []float64 {
	return pi.PredictInto(nil, in)
}

// PredictInto runs the plan over in, writing the output into dst when it
// has the right length (allocating it otherwise) and returning the
// filled slice. The steady state — correctly sized dst — allocates
// nothing: no op allocates or packs weights.
// in is never written to.
func (pi *PlanInstance) PredictInto(dst, in []float64) []float64 {
	if len(in) != pi.plan.inSize {
		auerr.Failf("nn: compiled plan expects %d inputs, got %d", pi.plan.inSize, len(in))
	}
	x := in
	for _, op := range pi.ops {
		x = op.run(x)
	}
	if len(dst) != len(x) {
		dst = make([]float64, len(x))
	}
	copy(dst, x)
	return dst
}

// --- dense ---

type cDense struct{ pd *tensor.PackedDense }

func (c *cDense) newOp() planOp {
	return &opDense{pd: c.pd, out: make([]float64, c.pd.Out())}
}

type opDense struct {
	pd  *tensor.PackedDense
	out []float64
}

func (o *opDense) run(in []float64) []float64 {
	o.pd.Forward(o.out, in)
	return o.out
}

// --- conv2d ---

// cConv holds the implicit-GEMM conv compile result: filter panels are
// prepacked exactly once here (the conv analogue of PackDense), so a
// steady-state op run gathers input columns straight into its pack
// scratch and multiplies — no column matrix, no weight packing, no
// allocation.
type cConv struct {
	pc       *tensor.PackedConv
	bias     []float64
	fuseReLU bool // apply ReLU inside the bias pass (compile peephole)
}

func (c *cConv) newOp() planOp {
	g := c.pc.Geom()
	return &opConv{
		c:          c,
		n:          g.Cols(),
		packedCols: make([]float64, c.pc.PackedColsLen()),
		out2d:      make([]float64, g.OutC*g.Cols()),
	}
}

type opConv struct {
	c          *cConv
	n          int
	packedCols []float64
	out2d      []float64
}

func (o *opConv) run(in []float64) []float64 {
	o.c.pc.Forward(o.out2d, in, o.packedCols)
	addBias(o.out2d, o.c.bias, o.n, o.c.fuseReLU)
	return o.out2d
}

// --- maxpool ---

type cPool struct{ size, c, h, w, outSize int }

func (c *cPool) newOp() planOp {
	return &opPool{c: c, out: make([]float64, c.outSize)}
}

type opPool struct {
	c   *cPool
	out []float64
}

func (o *opPool) run(in []float64) []float64 {
	maxPool(o.out, in, o.c.c, o.c.h, o.c.w, o.c.size)
	return o.out
}

// --- elementwise maps ---

// cMap is an activation op: f is the layer's own kernel.
type cMap struct {
	f    func(dst, src []float64)
	size int
}

func (c *cMap) newOp() planOp {
	return &opMap{c: c, out: make([]float64, c.size)}
}

type opMap struct {
	c   *cMap
	out []float64
}

func (o *opMap) run(in []float64) []float64 {
	o.c.f(o.out, in)
	return o.out
}
