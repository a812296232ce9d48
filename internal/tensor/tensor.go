// Package tensor implements the dense numerical arrays underpinning
// Autonomizer's neural-network substrate. The paper delegates model
// execution to TensorFlow; this package is the from-scratch substitute:
// row-major float64 tensors with the kernels the nn package needs: the
// dispatched GEBP tile behind convolution (convgemm.go), the packed
// dense GEMV (pack.go), Dot and elementwise maps.
//
// Design notes: tensors carry an explicit shape and a flat backing slice.
// Operations either return fresh tensors or write into caller-supplied
// destinations; nothing here is goroutine-safe by itself.
//
// Every kernel here runs sequentially on the calling goroutine;
// parallelism lives above the network (the serving engine's shards and
// the evaluation rollouts), so results never depend on a worker count.
// The materialized references every fast path is checked against
// (naive matmul, im2col/col2im) live in the package tests.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major array of float64 with an arbitrary shape.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero tensor with the given shape. It panics on negative
// dimensions; a zero-dimension tensor (scalar) has one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if the element count does not match.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. Callers must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the flat backing slice, in row-major order.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape. It panics if
// the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces each element x with f(x) in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
	return t
}

// AddInPlace adds o elementwise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.assertSameShape(o)
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// SubInPlace subtracts o elementwise from t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.assertSameShape(o)
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// MulInPlace multiplies t elementwise by o (Hadamard product).
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.assertSameShape(o)
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

func (t *Tensor) assertSameShape(o *Tensor) {
	if len(t.shape) != len(o.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, o.shape))
		}
	}
}

// Reuse returns a tensor with the given shape, recycling t's backing
// array when its capacity suffices and allocating a fresh tensor
// otherwise. The contents are unspecified when recycled — callers must
// fully overwrite. This is the layer-scratch primitive: a layer holds
// its output tensor across calls and Reuses it each Forward, so the
// steady state allocates nothing.
func Reuse(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	if t == nil || cap(t.data) < n {
		return New(shape...)
	}
	t.data = t.data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// View repoints view at src's backing data with the given shape and
// returns it: an allocation-free Reshape for hot paths (a nil view
// allocates the header once, then it is recycled on every call). The
// returned tensor shares src's data; it panics if the element counts
// differ.
func View(view, src *Tensor, shape ...int) *Tensor {
	return ViewOf(view, src.data, shape...)
}

// ViewOf is View over a raw slice: it repoints view at data with the
// given shape. The element count must match len(data).
//
// Like Reuse, a literal variadic call — ViewOf(v, data, 4, 8) — is
// allocation-free: the shape argument never escapes, so it stays on the
// caller's stack. The panic path copies the shape before formatting it
// precisely to preserve that property; handing the parameter itself to
// fmt would make every call site heap-allocate its shape literal.
func ViewOf(view *Tensor, data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d",
			append([]int(nil), shape...), n, len(data)))
	}
	if view == nil {
		view = &Tensor{}
	}
	view.shape = append(view.shape[:0], shape...)
	view.data = data
	return view
}

// Dot computes the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MaxAbs returns the largest absolute element value, used for gradient
// clipping diagnostics.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, x := range t.data {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, x := range t.data {
		s += x * x
	}
	return math.Sqrt(s)
}

// String renders a compact description, e.g. "Tensor[2 3]".
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
