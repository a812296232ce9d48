package nn

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// Serialization format (versioned, little-endian):
//
//	magic "AUNN" | uint32 version | uint32 paramTensorCount
//	per tensor: uint32 rank | rank×uint32 dims | dims-product×float64
//
// This is the on-disk model the paper's CONFIG-TEST rule loads
// (loadModel) and whose byte size Table 2 reports in the "Model Size"
// columns. Only parameters are stored — architecture is reconstructed
// from the au_config annotation, exactly as the paper regenerates the
// Python template from the primitives.

const (
	modelMagic   = "AUNN"
	modelVersion = 1
)

// SizeBytes returns the exact serialized size of the model without
// allocating the full buffer: header + per-tensor shape records + 8 bytes
// per parameter. This feeds Table 2's "Model Size" columns.
func (n *Network) SizeBytes() int {
	size := 4 + 4 + 4 // magic + version + count
	for _, p := range n.Params() {
		size += 4 + 4*len(p.Shape()) + 8*p.Size()
	}
	return size
}

// MarshalParams serializes the parameters into one SizeBytes()-long
// slice.
func (n *Network) MarshalParams() ([]byte, error) {
	params := n.Params()
	b := make([]byte, 0, n.SizeBytes())
	b = append(b, modelMagic...)
	b = binary.LittleEndian.AppendUint32(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Shape())))
		for _, d := range p.Shape() {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		for _, v := range p.Data() {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// UnmarshalParams restores parameters from a MarshalParams image into an
// architecture-compatible network (same tensor count and shapes, as
// rebuilt from the same au_config annotation). It decodes data in place,
// allocating nothing, and ignores bytes after the image. Truncated,
// garbage or architecture-mismatched bytes return an error wrapping
// auerr.ErrCorruptModel and leave the parameters as they were: the
// whole image is checked before the first value is written.
func (n *Network) UnmarshalParams(data []byte) error {
	if err := n.checkParams(data); err != nil {
		return err
	}
	n.unmarshalParams(data, true)
	return nil
}

// checkParams validates a MarshalParams image against the network
// without writing anything, wrapping any failure in
// auerr.ErrCorruptModel.
func (n *Network) checkParams(data []byte) error {
	if err := n.unmarshalParams(data, false); err != nil {
		return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
	}
	return nil
}

// unmarshalParams walks a MarshalParams image, checking every header and
// length against the network, and copies the values into the parameters
// only when apply is set. Run once with apply unset, it is the whole
// check; the applying pass then cannot fail.
func (n *Network) unmarshalParams(data []byte, apply bool) error {
	if len(data) < 12 {
		return fmt.Errorf("nn: header truncated at %d bytes", len(data))
	}
	if string(data[:4]) != modelMagic {
		return fmt.Errorf("nn: bad magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != modelVersion {
		return fmt.Errorf("nn: unsupported model version %d", version)
	}
	params := n.Params()
	if count := binary.LittleEndian.Uint32(data[8:]); int(count) != len(params) {
		return fmt.Errorf("nn: model has %d tensors, network expects %d", count, len(params))
	}
	data = data[12:]
	for i, p := range params {
		want := p.Shape()
		if len(data) < 4+4*len(want) {
			return fmt.Errorf("nn: shape of tensor %d truncated", i)
		}
		if rank := binary.LittleEndian.Uint32(data); int(rank) != len(want) {
			return fmt.Errorf("nn: tensor %d rank %d, want %d", i, rank, len(want))
		}
		for j, w := range want {
			if d := binary.LittleEndian.Uint32(data[4+4*j:]); int(d) != w {
				return fmt.Errorf("nn: tensor %d dim %d is %d, want %d", i, j, d, w)
			}
		}
		data = data[4+4*len(want):]
		vals := p.Data()
		if len(data) < 8*len(vals) {
			return fmt.Errorf("nn: data of tensor %d truncated", i)
		}
		if apply {
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			}
		}
		data = data[8*len(vals):]
	}
	return nil
}
