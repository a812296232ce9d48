package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/core"
)

// Snapshot format (versioned, little-endian, db-store conventions):
//
//	magic "AUSN" | uint32 version | uint32 modelCount
//	per model: uint32 nameLen | name
//	           uint32 specLen | spec JSON (wireSpec)
//	           uint32 dataLen | SaveModel image (inSize|outSize|params)
//
// A snapshot file is the deployable unit of the serving layer: a
// training run exports one with WriteSnapshot, auserve loads it at
// startup, and POST /models/{name}/reload re-reads it for atomic hot
// swaps. Corrupt or truncated bytes fail with auerr.ErrCorruptStore
// before anything is installed.

const (
	snapMagic   = "AUSN"
	snapVersion = 1
)

// SnapshotModel is one model in a snapshot: its serving spec plus the
// SaveModel weight image.
type SnapshotModel struct {
	Name string
	Spec core.ModelSpec
	Data []byte
}

// wireSpec is the JSON-serializable subset of core.ModelSpec a serving
// engine needs (Builder callbacks cannot cross a process boundary; the
// training-only knobs are irrelevant in TS mode).
type wireSpec struct {
	Type             core.ModelType `json:"type"`
	Algo             core.Algorithm `json:"algo"`
	Hidden           []int          `json:"hidden,omitempty"`
	Actions          int            `json:"actions,omitempty"`
	InputShape       []int          `json:"input_shape,omitempty"`
	OutputActivation string         `json:"output_activation,omitempty"`
}

func toWireSpec(s core.ModelSpec) wireSpec {
	return wireSpec{
		Type: s.Type, Algo: s.Algo, Hidden: s.Hidden, Actions: s.Actions,
		InputShape: s.InputShape, OutputActivation: s.OutputActivation,
	}
}

func (w wireSpec) modelSpec(name string) core.ModelSpec {
	return core.ModelSpec{
		Name: name, Type: w.Type, Algo: w.Algo, Hidden: w.Hidden,
		Actions: w.Actions, InputShape: w.InputShape,
		OutputActivation: w.OutputActivation,
	}
}

// WriteSnapshot serializes the models to w in the versioned snapshot
// format.
func WriteSnapshot(w io.Writer, models []SnapshotModel) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return fmt.Errorf("serve: write magic: %w", err)
	}
	for _, v := range []uint32{snapVersion, uint32(len(models))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("serve: write header: %w", err)
		}
	}
	writeBlob := func(what string, b []byte) error {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(b))); err != nil {
			return fmt.Errorf("serve: write %s length: %w", what, err)
		}
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("serve: write %s: %w", what, err)
		}
		return nil
	}
	for _, m := range models {
		specJSON, err := json.Marshal(toWireSpec(m.Spec))
		if err != nil {
			return fmt.Errorf("serve: marshal spec for %q: %w", m.Name, err)
		}
		if err := writeBlob("name", []byte(m.Name)); err != nil {
			return err
		}
		if err := writeBlob("spec", specJSON); err != nil {
			return err
		}
		if err := writeBlob("weights", m.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot decodes a snapshot image. Garbage or truncation wraps
// auerr.ErrCorruptStore.
func ReadSnapshot(r io.Reader) ([]SnapshotModel, error) {
	models, err := readSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", auerr.ErrCorruptStore, err)
	}
	return models, nil
}

func readSnapshot(r io.Reader) ([]SnapshotModel, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("serve: read magic: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("serve: bad snapshot magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("serve: read version: %w", err)
	}
	if version != snapVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("serve: read model count: %w", err)
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("serve: implausible model count %d", count)
	}
	readBlob := func(what string, max uint32) ([]byte, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("serve: read %s length: %w", what, err)
		}
		if n > max {
			return nil, fmt.Errorf("serve: implausible %s length %d", what, n)
		}
		b, err := readN(br, int(n))
		if err != nil {
			return nil, fmt.Errorf("serve: read %s: %w", what, err)
		}
		return b, nil
	}
	// The count is a claim like every length prefix: grow as models
	// arrive rather than preallocating for it.
	var models []SnapshotModel
	for i := uint32(0); i < count; i++ {
		name, err := readBlob("name", maxNameLen)
		if err != nil {
			return nil, err
		}
		specJSON, err := readBlob("spec", 1<<20)
		if err != nil {
			return nil, err
		}
		var ws wireSpec
		if err := json.Unmarshal(specJSON, &ws); err != nil {
			return nil, fmt.Errorf("serve: decode spec for %q: %w", name, err)
		}
		data, err := readBlob("weights", 1<<30)
		if err != nil {
			return nil, err
		}
		models = append(models, SnapshotModel{
			Name: string(name), Spec: ws.modelSpec(string(name)), Data: data,
		})
	}
	return models, nil
}

// Source supplies model snapshots for hot reloads: given a model name,
// it returns the serving spec and the SaveModel weight image. A Server
// configured with a Source serves POST /models/{name}/reload with an
// empty body by pulling the fresh snapshot from here.
type Source interface {
	Snapshot(name string) (core.ModelSpec, []byte, error)
}

// FileSource is a Source backed by a snapshot file: every lookup
// re-reads the file, so replacing it on disk and POSTing reload is the
// whole deployment story.
type FileSource string

// Snapshot implements Source.
func (p FileSource) Snapshot(name string) (core.ModelSpec, []byte, error) {
	f, err := os.Open(string(p))
	if err != nil {
		return core.ModelSpec{}, nil, fmt.Errorf("serve: open snapshot: %w", err)
	}
	defer f.Close()
	models, err := ReadSnapshot(f)
	if err != nil {
		return core.ModelSpec{}, nil, err
	}
	for _, m := range models {
		if m.Name == name {
			return m.Spec, m.Data, nil
		}
	}
	return core.ModelSpec{}, nil, auerr.E(auerr.ErrUnknownModel,
		"serve: snapshot %s has no model %q", p, name)
}
