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
	// on an optimizer bound to identically shaped parameters. A rejected
	// image leaves the state as it was.
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

// checkTensorSets checks that b holds exactly the tensor-set images of
// sets, one after another, against the optimizer's slices: each set's
// tensor count, every tensor's size, all of its values, and no byte
// after the last. It writes nothing.
func checkTensorSets(b []byte, sets ...[][]float64) error {
	off := 0
	for _, want := range sets {
		if len(b)-off < 4 {
			return fmt.Errorf("nn: read tensor count: %w", io.ErrUnexpectedEOF)
		}
		if count := binary.LittleEndian.Uint32(b[off:]); int(count) != len(want) {
			return fmt.Errorf("nn: state has %d tensors, optimizer expects %d", count, len(want))
		}
		off += 4
		for i, d := range want {
			if len(b)-off < 4 {
				return fmt.Errorf("nn: read size of tensor %d: %w", i, io.ErrUnexpectedEOF)
			}
			if size := binary.LittleEndian.Uint32(b[off:]); int(size) != len(d) {
				return fmt.Errorf("nn: tensor %d has %d values, optimizer expects %d", i, size, len(d))
			}
			off += 4
			if len(b)-off < 8*len(d) {
				return fmt.Errorf("nn: read values of tensor %d: %w", i, io.ErrUnexpectedEOF)
			}
			off += 8 * len(d)
		}
	}
	// Rejecting trailing bytes makes an accepted state re-marshal to
	// exactly its input.
	if off != len(b) {
		return fmt.Errorf("nn: %d trailing bytes after optimizer state", len(b)-off)
	}
	return nil
}

// readTensorSets copies images that checkTensorSets accepted for the
// same slices into them.
func readTensorSets(b []byte, sets ...[][]float64) {
	off := 0
	for _, set := range sets {
		off += 4
		for _, d := range set {
			off += 4
			for j := range d {
				d[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			}
		}
	}
}

func marshalOptHeader(buf *bytes.Buffer, name string) {
	buf.WriteString(optStateMagic)
	binary.Write(buf, binary.LittleEndian, uint32(optStateVersion))
	binary.Write(buf, binary.LittleEndian, uint16(len(name)))
	buf.WriteString(name)
}

// optStateBody checks the header of an optimizer-state image for the
// named optimizer and returns the bytes after it.
func optStateBody(data []byte, name string) ([]byte, error) {
	r := bytes.NewReader(data)
	if err := checkOptHeader(r, name); err != nil {
		return nil, err
	}
	return data[len(data)-r.Len():], nil
}

// corruptState classifies a state decoding failure as
// auerr.ErrCorruptModel.
func corruptState(err error) error {
	return fmt.Errorf("%w: %w", auerr.ErrCorruptModel, err)
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

// UnmarshalState implements StatefulOptimizer for Adam. The whole image
// is checked before anything is written, so a rejected state leaves the
// moments and the step counter as they were.
func (a *Adam) UnmarshalState(data []byte) error {
	body, err := optStateBody(data, a.Name())
	if err != nil {
		return corruptState(err)
	}
	if len(body) < 8 {
		return corruptState(fmt.Errorf("nn: read adam step counter: %w", io.ErrUnexpectedEOF))
	}
	m, v := datas(a.m), datas(a.v)
	if err := checkTensorSets(body[8:], m, v); err != nil {
		return corruptState(err)
	}
	readTensorSets(body[8:], m, v)
	a.t = int(binary.LittleEndian.Uint64(body))
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

// UnmarshalState implements StatefulOptimizer for SGD. The whole image
// is checked before anything is written, so a rejected state leaves the
// velocity as it was.
func (s *SGD) UnmarshalState(data []byte) error {
	body, err := optStateBody(data, s.Name())
	if err != nil {
		return corruptState(err)
	}
	if len(body) < 1 {
		return corruptState(fmt.Errorf("nn: read velocity flag: %w", io.ErrUnexpectedEOF))
	}
	if hasVel := body[0]; hasVel > 1 {
		return corruptState(fmt.Errorf("nn: velocity flag %d is neither 0 nor 1", hasVel))
	} else if (hasVel == 1) != (s.velocity != nil) {
		return corruptState(fmt.Errorf("nn: momentum configuration mismatch"))
	}
	var sets [][][]float64
	if s.velocity != nil {
		sets = append(sets, datas(s.velocity))
	}
	if err := checkTensorSets(body[1:], sets...); err != nil {
		return corruptState(err)
	}
	readTensorSets(body[1:], sets...)
	return nil
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
// return an error wrapping auerr.ErrCorruptModel and leave the
// optimizer as it was.
func (n *Network) UnmarshalOptState(data []byte) error {
	so, ok := n.opt.(StatefulOptimizer)
	if !ok {
		return auerr.E(auerr.ErrNotMaterialized, "nn: no stateful optimizer bound")
	}
	return so.UnmarshalState(data)
}

// UnmarshalTrainingState restores a MarshalParams image and a
// MarshalOptState image together, as a resumed fit needs them: both are
// checked before either is written, so when one is rejected the
// parameters, the moments and the step counter all stay as they were.
// Failures wrap auerr.ErrCorruptModel, or auerr.ErrNotMaterialized when
// no stateful optimizer is bound.
func (n *Network) UnmarshalTrainingState(params, optState []byte) error {
	if err := n.checkParams(params); err != nil {
		return err
	}
	if err := n.UnmarshalOptState(optState); err != nil {
		return err
	}
	n.unmarshalParams(params, true)
	return nil
}
