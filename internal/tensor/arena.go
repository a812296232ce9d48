package tensor

import (
	"math/bits"
	"sync"
)

// Arena is a sync.Pool-backed scratch allocator for float64 buffers,
// keyed by power-of-two size class. It backs the transient scratch the
// kernels and layers need per call (GEBP pack panels, conv gather
// blocks) so the steady-state predict and train paths stop touching the
// heap: after warm-up every Get is served from a pool and every Put
// recycles the buffer, pointer header and all.
//
// Buffers travel as *[]float64 so the slice header is recycled along with
// the backing array (a bare []float64 through sync.Pool would re-box the
// header on every Put). Contents are unspecified on Get; callers must
// fully overwrite. An Arena is safe for concurrent use; buffers
// themselves are not.
type Arena struct {
	classes [arenaClasses]sync.Pool
}

const (
	// arenaMinBits is the smallest pooled class, 2^6 = 64 elements;
	// smaller requests round up (a 512-byte floor keeps the class count
	// small without wasting meaningful memory).
	arenaMinBits = 6
	// arenaMaxBits is the largest pooled class, 2^24 elements (128 MiB).
	// Larger requests fall through to plain make and are dropped on Put.
	arenaMaxBits  = 24
	arenaClasses  = arenaMaxBits - arenaMinBits + 1
	arenaMinClass = 1 << arenaMinBits
)

// Scratch is the process-wide arena shared by the tensor kernels and the
// nn layers. Package-level because scratch lifetime is a single kernel
// call: everything taken is returned before the call ends, so sharing
// one arena maximizes reuse across layers and models.
var Scratch = NewArena()

// NewArena returns an empty arena. The zero value is also usable.
func NewArena() *Arena { return &Arena{} }

// classFor returns the class index of the smallest size class holding n
// elements, or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= arenaMinClass {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > arenaMaxBits {
		return -1
	}
	return b - arenaMinBits
}

// Get returns a buffer with length n and unspecified contents. The
// returned pointer must be handed back to Put (not the dereferenced
// slice) for the header to be recycled.
func (a *Arena) Get(n int) *[]float64 {
	if n < 0 {
		n = 0
	}
	c := classFor(n)
	if c < 0 {
		s := make([]float64, n)
		return &s
	}
	if p, _ := a.classes[c].Get().(*[]float64); p != nil {
		*p = (*p)[:n]
		return p
	}
	s := make([]float64, n, 1<<(c+arenaMinBits))
	return &s
}

// Put returns a buffer obtained from Get to its size class. Buffers whose
// capacity falls below the smallest class, or above the largest, are
// dropped for the GC instead. Put(nil) is a no-op.
func (a *Arena) Put(p *[]float64) {
	if p == nil {
		return
	}
	c := cap(*p)
	if c < arenaMinClass {
		return
	}
	b := bits.Len(uint(c)) - 1 // floor(log2(cap)): the class is guaranteed refillable
	if b > arenaMaxBits {
		return
	}
	a.classes[b-arenaMinBits].Put(p)
}
