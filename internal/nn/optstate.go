package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Optimizer-state serialization (versioned, little-endian):
//
//	magic "AUOP" | uint32 version | uint16 nameLen | name
//	adam: uint64 t | uint32 tensorCount | per tensor: uint32 size | size×float64 m
//	      followed by the v tensors in the same layout
//	sgd:  uint8 hasVelocity | uint32 tensorCount | per tensor: uint32 size | size×float64
//
// Parameters alone are not enough to resume a fit bit-identically: Adam
// carries first/second moment estimates and a bias-correction step
// counter whose trajectory depends on every update applied so far. The
// durable training queue persists this state at minibatch boundaries so
// a fit killed mid-epoch resumes with the exact optimizer the crashed
// process held.

const (
	optStateMagic   = "AUOP"
	optStateVersion = 1
)

// StatefulOptimizer is implemented by optimizers whose mutable state can
// be captured and restored for crash-resumable training. Adam and SGD
// both satisfy it.
type StatefulOptimizer interface {
	Optimizer
	// MarshalState serializes the optimizer's mutable state (moments,
	// step counters) — not its hyperparameters, which are rebuilt from
	// the model spec.
	MarshalState() ([]byte, error)
	// UnmarshalState restores state previously produced by MarshalState
	// on an optimizer bound to identically shaped parameters.
	UnmarshalState(data []byte) error
}

// datas extracts the backing slices of a tensor list; optimizer state
// reads and writes go straight through them.
func datas(ts []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Data()
	}
	return out
}

func writeTensorSet(w io.Writer, set [][]float64) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(set))); err != nil {
		return err
	}
	for _, d := range set {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(d))); err != nil {
			return err
		}
		for _, v := range d {
			if err := binary.Write(w, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

func readTensorSet(r io.Reader, want [][]float64) error {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: read tensor count: %w", err)
	}
	if int(count) != len(want) {
		return fmt.Errorf("nn: state has %d tensors, optimizer expects %d", count, len(want))
	}
	for i, d := range want {
		var size uint32
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return fmt.Errorf("nn: read size of tensor %d: %w", i, err)
		}
		if int(size) != len(d) {
			return fmt.Errorf("nn: tensor %d has %d values, optimizer expects %d", i, size, len(d))
		}
		for j := range d {
			var bits uint64
			if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
				return fmt.Errorf("nn: read value of tensor %d: %w", i, err)
			}
			d[j] = math.Float64frombits(bits)
		}
	}
	return nil
}

func marshalOptHeader(buf *bytes.Buffer, name string) {
	buf.WriteString(optStateMagic)
	binary.Write(buf, binary.LittleEndian, uint32(optStateVersion))
	binary.Write(buf, binary.LittleEndian, uint16(len(name)))
	buf.WriteString(name)
}

func checkOptHeader(r io.Reader, name string) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("nn: read state magic: %w", err)
	}
	if string(magic) != optStateMagic {
		return fmt.Errorf("nn: bad state magic %q", magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("nn: read state version: %w", err)
	}
	if version != optStateVersion {
		return fmt.Errorf("nn: unsupported state version %d", version)
	}
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return fmt.Errorf("nn: read optimizer name length: %w", err)
	}
	// A name of another length cannot match; checking first keeps a
	// corrupt length from allocating up to 64 KiB.
	if int(nameLen) != len(name) {
		return fmt.Errorf("nn: state names a %d-byte optimizer, bound optimizer is %q", nameLen, name)
	}
	got := make([]byte, nameLen)
	if _, err := io.ReadFull(r, got); err != nil {
		return fmt.Errorf("nn: read optimizer name: %w", err)
	}
	if string(got) != name {
		return fmt.Errorf("nn: state is for optimizer %q, bound optimizer is %q", got, name)
	}
	return nil
}

// MarshalState implements StatefulOptimizer for Adam: the bias-correction
// step counter and both moment estimate sets.
func (a *Adam) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	marshalOptHeader(&buf, a.Name())
	if err := binary.Write(&buf, binary.LittleEndian, uint64(a.t)); err != nil {
		return nil, err
	}
	for _, set := range [][]*tensor.Tensor{a.m, a.v} {
		if err := writeTensorSet(&buf, datas(set)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements StatefulOptimizer for Adam.
func (a *Adam) UnmarshalState(data []byte) error {
	r := bytes.NewReader(data)
	if err := checkOptHeader(r, a.Name()); err != nil {
		return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
	}
	var t uint64
	if err := binary.Read(r, binary.LittleEndian, &t); err != nil {
		return fmt.Errorf("%w: nn: read adam step counter: %w", auerr.ErrCorruptModel, err)
	}
	for _, set := range [][]*tensor.Tensor{a.m, a.v} {
		if err := readTensorSet(r, datas(set)); err != nil {
			return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
		}
	}
	if err := checkStateEnd(r); err != nil {
		return err
	}
	a.t = int(t)
	return nil
}

// checkStateEnd rejects bytes after a decoded state, so an accepted
// state re-marshals to exactly its input.
func checkStateEnd(r *bytes.Reader) error {
	if r.Len() != 0 {
		return fmt.Errorf("%w: nn: %d trailing bytes after optimizer state", auerr.ErrCorruptModel, r.Len())
	}
	return nil
}

// MarshalState implements StatefulOptimizer for SGD (momentum velocity,
// when configured).
func (s *SGD) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	marshalOptHeader(&buf, s.Name())
	hasVel := byte(0)
	if s.velocity != nil {
		hasVel = 1
	}
	buf.WriteByte(hasVel)
	if s.velocity != nil {
		if err := writeTensorSet(&buf, datas(s.velocity)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements StatefulOptimizer for SGD.
func (s *SGD) UnmarshalState(data []byte) error {
	r := bytes.NewReader(data)
	if err := checkOptHeader(r, s.Name()); err != nil {
		return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
	}
	var hasVel byte
	if err := binary.Read(r, binary.LittleEndian, &hasVel); err != nil {
		return fmt.Errorf("%w: nn: read velocity flag: %w", auerr.ErrCorruptModel, err)
	}
	if hasVel > 1 {
		return fmt.Errorf("%w: nn: velocity flag %d is neither 0 nor 1", auerr.ErrCorruptModel, hasVel)
	}
	if (hasVel == 1) != (s.velocity != nil) {
		return fmt.Errorf("%w: nn: momentum configuration mismatch", auerr.ErrCorruptModel)
	}
	if s.velocity != nil {
		if err := readTensorSet(r, datas(s.velocity)); err != nil {
			return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
		}
	}
	return checkStateEnd(r)
}

// MarshalOptState serializes the bound optimizer's mutable state, or an
// error wrapping auerr.ErrNotMaterialized when no stateful optimizer is
// bound.
func (n *Network) MarshalOptState() ([]byte, error) {
	so, ok := n.opt.(StatefulOptimizer)
	if !ok {
		return nil, auerr.E(auerr.ErrNotMaterialized, "nn: no stateful optimizer bound")
	}
	return so.MarshalState()
}

// UnmarshalOptState restores optimizer state previously produced by
// MarshalOptState into the bound optimizer. Mismatched or corrupt bytes
// return an error wrapping auerr.ErrCorruptModel.
func (n *Network) UnmarshalOptState(data []byte) error {
	so, ok := n.opt.(StatefulOptimizer)
	if !ok {
		return auerr.E(auerr.ErrNotMaterialized, "nn: no stateful optimizer bound")
	}
	return so.UnmarshalState(data)
}
