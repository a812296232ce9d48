package core

import (
	"encoding/binary"
	"math"
	"math/bits"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// ServingPlan compiles a SaveModel image into the frozen-weight plan that
// a Test-mode Config of spec installs, without the runtime around it: it
// builds the network the weights load into and nothing else — no store,
// optimizer, agent or replay buffer. A malformed spec, or a network the
// plan compiler rejects, wraps auerr.ErrSpecInvalid; an image that does
// not fit the spec wraps auerr.ErrCorruptModel.
func ServingPlan(spec ModelSpec, image []byte) (_ *nn.Plan, err error) {
	defer guard(&err)
	if err := spec.validate(); err != nil {
		return nil, err
	}
	inSize, outSize, params, err := decodeImage(spec, image)
	if err != nil {
		return nil, err
	}
	m := newModel(spec, stats.NewRNG(1)) // the initial weights are overwritten
	m.inSize, m.outSize = inSize, outSize
	m.net = m.build(inSize, outSize)
	if err := m.loadParams(params); err != nil {
		return nil, err
	}
	p, _, err := m.compiledPlan()
	return p, err
}

// decodeImage decodes a SaveModel image (uint32 inSize | uint32 outSize |
// MarshalParams blob, little-endian) to be loaded as spec. The sizes are
// only a claim: before anything is allocated for the network, it rejects
// with auerr.ErrCorruptModel an image whose input size disagrees with a
// CNN spec's InputShape, and one whose parameter blob is too short to
// hold the parameters its sizes imply, so a few forged header bytes
// cannot make the loader allocate gigabytes.
func decodeImage(spec ModelSpec, data []byte) (inSize, outSize int, params []byte, err error) {
	if len(data) < 8 {
		return 0, 0, nil, auerr.E(auerr.ErrCorruptModel, "core: model %q: saved model too short (%d bytes)", spec.Name, len(data))
	}
	inSize = int(binary.LittleEndian.Uint32(data[0:4]))
	outSize = int(binary.LittleEndian.Uint32(data[4:8]))
	params = data[8:]
	if spec.Type == CNN {
		want := uint64(1)
		for _, d := range spec.InputShape {
			want = satMul(want, uint64(d))
		}
		if uint64(inSize) != want {
			return 0, 0, nil, auerr.E(auerr.ErrCorruptModel, "core: model %q: image has %d inputs, InputShape %v has %d",
				spec.Name, inSize, spec.InputShape, want)
		}
	}
	if n := paramCount(spec, inSize, outSize); n > uint64(len(params))/8 {
		return 0, 0, nil, auerr.E(auerr.ErrCorruptModel, "core: model %q: %d-byte parameter blob cannot hold the %d parameters of a %d→%d network",
			spec.Name, len(params), n, inSize, outSize)
	}
	return inSize, outSize, params, nil
}

// paramCount is the scalar parameter count of the network build makes
// for a validated spec at the given sizes, computed without building it.
// The arithmetic saturates instead of wrapping, so a forged size can
// only overstate the count. A Builder net is opaque and counts 0.
func paramCount(spec ModelSpec, inSize, outSize int) (n uint64) {
	if spec.Builder != nil {
		return 0
	}
	layer := func(fanIn, fanOut uint64) { n = satAdd(n, satAdd(satMul(fanIn, fanOut), fanOut)) } // weights, biases
	if spec.Type == CNN {
		// NewDeepMindCNN: conv 5×5→8, 3×3→16, 3×3→16, dense flat→256→64→out.
		s := spec.InputShape
		h, w := nn.DeepMindFeatureMap(s[1], s[2])
		layer(satMul(uint64(s[0]), 5*5), 8)
		layer(8*3*3, 16)
		layer(16*3*3, 16)
		layer(satMul(16, satMul(uint64(h), uint64(w))), 256)
		layer(256, 64)
		layer(64, uint64(outSize))
		return n
	}
	prev := uint64(inSize)
	for _, h := range spec.Hidden {
		layer(prev, uint64(h))
		prev = uint64(h)
	}
	layer(prev, uint64(outSize))
	return n
}

func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

func satAdd(a, b uint64) uint64 {
	if s, carry := bits.Add64(a, b, 0); carry == 0 {
		return s
	}
	return math.MaxUint64
}
