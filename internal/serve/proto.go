// Package serve is the networked model-serving subsystem: it puts a
// trained Autonomizer model behind a socket. The Server exposes the
// query-side primitives over HTTP/JSON (with a length-prefixed binary
// fast path for Predict), coalescing concurrent single-example requests
// into minibatch forward passes on the parallel engine through a
// dynamic micro-batcher; the Client implements the same query surface
// as the in-process Runtime (the root package's Querier interface), so
// a host program switches between embedded and remote inference with
// one constructor change.
//
// Contract highlights (DESIGN.md §5d):
//
//   - Batching never changes results: each example in a coalesced batch
//     runs the exact same per-example forward pass as an in-process
//     PredictCtx, so responses are bit-identical at any batch shape.
//   - Backpressure is explicit: each model has a bounded request queue;
//     a full queue rejects immediately with auerr.ErrOverloaded, which
//     the HTTP surface maps to 429.
//   - Reloads are atomic: POST /models/{name}/reload builds a fresh
//     engine off to the side and swaps it in with one pointer store;
//     in-flight batches finish on the engine they started with.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// Wire types of the JSON surface. Every error response is
// errorResponse-shaped; its Class field carries the auerr class
// vocabulary so remote callers can reconstruct typed errors (see
// auerr.FromClass).
type (
	// PredictRequest asks for one forward pass of a named model.
	PredictRequest struct {
		Model string    `json:"model"`
		Input []float64 `json:"input"`
	}
	// PredictResponse carries the model output vector.
	PredictResponse struct {
		Output []float64 `json:"output"`
	}
	// ActRequest asks for the greedy action of a QLearn model on a
	// state vector (the remote au_NN for RL models in TS mode).
	ActRequest struct {
		Model string    `json:"model"`
		State []float64 `json:"state"`
	}
	// ActResponse carries the chosen discrete action index.
	ActResponse struct {
		Action int `json:"action"`
	}
	// ModelInfo describes one served model on GET /v1/models.
	ModelInfo struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
		InSize  int    `json:"in_size"`
		OutSize int    `json:"out_size"`
	}
	// ReloadResponse acknowledges a hot reload with the new version.
	ReloadResponse struct {
		Model   string `json:"model"`
		Version int    `json:"version"`
	}
	// SnapshotResponse acknowledges a snapshot install (POST
	// /v1/snapshot) with how many models the image carried.
	SnapshotResponse struct {
		Models int `json:"models"`
	}
	// ObserveRequest reports ground truth for a prediction a client
	// served earlier: the drift monitor folds the pair's mean squared
	// error into the model's rolling window (POST /v1/observe).
	ObserveRequest struct {
		Model     string    `json:"model"`
		Predicted []float64 `json:"predicted"`
		Observed  []float64 `json:"observed"`
	}
	// ObserveResponse carries the model's updated drift verdict.
	ObserveResponse struct {
		Model     string  `json:"model"`
		Loss      float64 `json:"loss"`
		Samples   int     `json:"samples"`
		Threshold float64 `json:"threshold"`
		Healthy   bool    `json:"healthy"`
	}
	// errorResponse is the uniform error body: a human-readable message
	// plus the machine-readable auerr class.
	errorResponse struct {
		Error string `json:"error"`
		Class string `json:"class,omitempty"`
	}
)

// BinaryContentType marks the length-prefixed binary Predict framing on
// POST /v1/predict. Request body:
//
//	"AUF1" | uint32 nameLen | name | uint32 n | n × float64   (little-endian)
//
// Response body (status 200):
//
//	uint32 n | n × float64
//
// Errors come back as the usual JSON errorResponse with a non-2xx
// status, so the fast path changes only the payload encoding, not the
// error contract.
const BinaryContentType = "application/x-autonomizer-predict"

// binaryMagic guards against JSON accidentally posted with the binary
// content type.
const binaryMagic = "AUF1"

// Frame caps: a corrupt length prefix must fail cleanly, not allocate
// gigabytes (same posture as db.Store.Load).
const (
	maxNameLen  = 4 << 10
	maxVecLen   = 1 << 24
	maxJSONBody = 256 << 20
)

// readChunk is the most a decoder allocates ahead of the bytes that
// actually arrived: a length prefix is only a claim until the data
// backs it.
const readChunk = 64 << 10

// readN reads exactly n bytes from r. The buffer starts at readChunk at
// most and doubles only once the bytes read so far fill it, so it never
// exceeds readChunk or twice the bytes that actually arrived. Errors are io.ReadFull's: io.EOF when nothing arrived,
// io.ErrUnexpectedEOF when the data stops short.
func readN(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, readChunk))
	got := 0
	for {
		m, err := io.ReadFull(r, b[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return b, nil
		}
		grown := make([]byte, min(2*len(b), n))
		copy(grown, b)
		b = grown
	}
}

// encodePredictFrame renders the binary request framing.
func encodePredictFrame(model string, in []float64) []byte {
	buf := make([]byte, 0, len(binaryMagic)+4+len(model)+4+8*len(in))
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(model)))
	buf = append(buf, model...)
	buf = appendVector(buf, in)
	return buf
}

// decodePredictFrame parses the binary request framing.
func decodePredictFrame(r io.Reader) (model string, in []float64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return "", nil, fmt.Errorf("serve: read frame magic: %w", err)
	}
	if string(magic[:]) != binaryMagic {
		return "", nil, fmt.Errorf("serve: bad frame magic %q", magic)
	}
	var nameLen uint32
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return "", nil, fmt.Errorf("serve: read name length: %w", err)
	}
	if nameLen > maxNameLen {
		return "", nil, fmt.Errorf("serve: implausible model-name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, fmt.Errorf("serve: read model name: %w", err)
	}
	in, err = readVector(r)
	if err != nil {
		return "", nil, err
	}
	return string(name), in, nil
}

// DecodePredictFrame parses the binary Predict request framing. The
// fleet router uses it to sniff the model name off a frame it then
// forwards byte-for-byte to the model's owner.
func DecodePredictFrame(r io.Reader) (model string, in []float64, err error) {
	return decodePredictFrame(r)
}

// appendVector appends the length-prefixed float64 encoding of v.
func appendVector(buf []byte, v []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// readVector reads one length-prefixed float64 vector.
func readVector(r io.Reader) ([]float64, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("serve: read vector length: %w", err)
	}
	if n > maxVecLen {
		return nil, fmt.Errorf("serve: implausible vector length %d", n)
	}
	raw, err := readN(r, 8*int(n))
	if err != nil {
		return nil, fmt.Errorf("serve: read vector: %w", err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// statusFor maps an auerr class to the HTTP status the server responds
// with; the client's errorFromResponse inverts it through the class
// field, not the status, so the two stay decoupled.
func statusFor(err error) int {
	switch auerr.Class(err) {
	case "overloaded":
		return 429
	case "unavailable":
		return 503
	case "unknown_model":
		return 404
	case "spec_invalid", "missing_input", "mode_violation", "not_materialized":
		return 400
	case "canceled":
		// Client went away mid-call; 503 tells a proxy the work was shed.
		return 503
	default:
		return 500
	}
}
