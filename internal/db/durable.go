package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Durable store: every mutation of the database store π is journaled
// into a WAL while the store mutex is held, so the on-disk record order
// is exactly the apply order. Reopen replays the log into a fresh store;
// compaction collapses the history into one snapshot record (the Save
// image) at the head of a fresh segment.

// Store-op record types. The high nibble distinguishes store records
// from queue records so a mixed-up directory fails loudly.
const (
	walOpStoreAppend   byte = 0x01 // name + values appended
	walOpStorePut      byte = 0x02 // name + values replacing the binding
	walOpStoreReset    byte = 0x03 // name unbound
	walOpStoreConcat   byte = 0x04 // SERIALIZE: names concatenated under joined key
	walOpStoreSnapshot byte = 0x05 // full Save image (compaction base / RestoreSnapshot)
)

func encName(buf *bytes.Buffer, name string) {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(name)))
	buf.Write(l[:])
	buf.WriteString(name)
}

func decName(r *bytes.Reader) (string, error) {
	var l uint16
	if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
		return "", fmt.Errorf("db: read name length: %w", err)
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("db: read name: %w", err)
	}
	return string(b), nil
}

// encNameVals encodes name + float64 list for append/put records.
func encNameVals(name string, vals []float64) []byte {
	var buf bytes.Buffer
	buf.Grow(2 + len(name) + 4 + 8*len(vals))
	encName(&buf, name)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], uint32(len(vals)))
	buf.Write(c[:])
	var v [8]byte
	for _, x := range vals {
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(x))
		buf.Write(v[:])
	}
	return buf.Bytes()
}

func decNameVals(payload []byte) (string, []float64, error) {
	r := bytes.NewReader(payload)
	name, err := decName(r)
	if err != nil {
		return "", nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", nil, fmt.Errorf("db: read value count: %w", err)
	}
	if int64(n)*8 > int64(r.Len()) {
		return "", nil, fmt.Errorf("db: value count %d exceeds record size", n)
	}
	vals := make([]float64, n)
	for i := range vals {
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return "", nil, fmt.Errorf("db: read value: %w", err)
		}
		vals[i] = math.Float64frombits(bits)
	}
	return name, vals, nil
}

func encNames(names []string) []byte {
	var buf bytes.Buffer
	var c [2]byte
	binary.LittleEndian.PutUint16(c[:], uint16(len(names)))
	buf.Write(c[:])
	for _, n := range names {
		encName(&buf, n)
	}
	return buf.Bytes()
}

func decNames(payload []byte) ([]string, error) {
	r := bytes.NewReader(payload)
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("db: read name count: %w", err)
	}
	names := make([]string, n)
	for i := range names {
		var err error
		if names[i], err = decName(r); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// logRecord journals one store op; callers hold s.mu. Write failures are
// sticky inside the WAL and surfaced through DurableStore.Err/Sync — the
// in-memory store stays usable either way.
func (s *Store) logRecord(typ byte, payload []byte) {
	if s.wal != nil {
		_ = s.wal.Append(typ, payload)
	}
}

// DurableStore couples a Store with the WAL that journals it.
type DurableStore struct {
	*Store
	wal *WAL
}

// OpenDurable opens (creating if necessary) a WAL-backed store in dir.
// Existing records are replayed in order; a torn trailing record —
// an append interrupted by a crash — is truncated away and the valid
// prefix kept, while mid-file corruption fails with an error wrapping
// auerr.ErrCorruptStore (records that were once durable cannot silently
// vanish). After a successful open every mutation is journaled and, under
// the default options, fsync'd before the mutator returns.
func OpenDurable(dir string, opts WALOptions) (*DurableStore, error) {
	s := New()
	apply := func(typ byte, payload []byte) error {
		return s.applyWALRecord(typ, payload)
	}
	w, err := OpenWAL(dir, opts, apply)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
	return &DurableStore{Store: s, wal: w}, nil
}

// applyWALRecord applies one replayed journal record to the store. The
// store is not yet attached to the WAL during replay, so these mutations
// are not re-journaled.
func (s *Store) applyWALRecord(typ byte, payload []byte) error {
	switch typ {
	case walOpStoreAppend:
		name, vals, err := decNameVals(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.data[name] = append(s.data[name], vals...)
		s.mu.Unlock()
	case walOpStorePut:
		name, vals, err := decNameVals(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.data[name] = vals
		s.mu.Unlock()
	case walOpStoreReset:
		r := bytes.NewReader(payload)
		name, err := decName(r)
		if err != nil {
			return err
		}
		s.mu.Lock()
		delete(s.data, name)
		s.mu.Unlock()
	case walOpStoreConcat:
		names, err := decNames(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		var combined []float64
		for _, n := range names {
			combined = append(combined, s.data[n]...)
		}
		s.data[strings.Join(names, "+")] = combined
		s.mu.Unlock()
	case walOpStoreSnapshot:
		// A snapshot resets the store to the embedded Save image; stale
		// pre-compaction records replayed before it are superseded.
		data, err := decodeImage(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.data = data
		s.mu.Unlock()
	default:
		return fmt.Errorf("db: unknown store record type 0x%02x", typ)
	}
	return nil
}

// Compact collapses the journal into a single snapshot record (the
// current Save image) at the head of a fresh segment and removes the
// history. Mutators hold the store mutex while journaling, so holding it
// here makes snapshot-vs-append ordering exact.
func (d *DurableStore) Compact() error {
	d.Store.mu.Lock()
	defer d.Store.mu.Unlock()
	img := d.Store.saveImageLocked()
	return d.wal.Compact([]Record{{Type: walOpStoreSnapshot, Payload: img}})
}

// Sync flushes the journal and reports the sticky write error, if any.
func (d *DurableStore) Sync() error { return d.wal.Sync() }

// Err reports the journal's sticky write error, if any.
func (d *DurableStore) Err() error { return d.wal.Err() }

// WAL exposes the underlying log (size/segment accounting, recovery
// info).
func (d *DurableStore) WAL() *WAL { return d.wal }

// Close detaches the store from its journal and closes it; the in-memory
// store remains readable but further mutations are no longer durable.
func (d *DurableStore) Close() error {
	d.Store.mu.Lock()
	d.Store.wal = nil
	d.Store.mu.Unlock()
	return d.wal.Close()
}
