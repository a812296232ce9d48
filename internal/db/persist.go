package db

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// Serialization format (versioned, little-endian):
//
//	magic "AUDB" | uint32 version | uint32 nameCount
//	per name: uint32 nameLen | name bytes | uint32 valueCount | values
//
// Names appear in strictly increasing order. The paper's runtime
// "automatically records the values of the feature variables into a
// database"; this is the on-disk form of that store, letting a training
// run's extracted traces be saved and fed to offline SL training in a
// later process. The WAL's snapshot records carry the same image.

const (
	storeMagic   = "AUDB"
	storeVersion = 1
)

// Save serializes the store's full contents to w.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	img := s.saveImageLocked()
	s.mu.RUnlock()
	if _, err := w.Write(img); err != nil {
		return fmt.Errorf("db: write image: %w", err)
	}
	return nil
}

// saveImageLocked encodes the store as one image while s.mu is held.
func (s *Store) saveImageLocked() []byte {
	names := make([]string, 0, len(s.data))
	size := 12
	for k, v := range s.data {
		names = append(names, k)
		size += 8 + len(k) + 8*len(v)
	}
	sort.Strings(names)
	b := make([]byte, 0, size)
	b = append(b, storeMagic...)
	b = binary.LittleEndian.AppendUint32(b, storeVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		vals := s.data[name]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// Load replaces the store's contents with a previously saved image,
// reading r to EOF. Truncated, garbage or trailing bytes return an error
// wrapping auerr.ErrCorruptStore, leaving the store's previous contents
// intact (the image is fully decoded before anything is replaced).
func (s *Store) Load(r io.Reader) error {
	img, err := io.ReadAll(r)
	if err == nil {
		var data map[string][]float64
		if data, err = decodeImage(img); err == nil {
			s.mu.Lock()
			s.data = data
			// Journaled like RestoreSnapshot, as a full snapshot record;
			// img is canonical, so it is exactly what Save would write.
			s.logRecord(walOpStoreSnapshot, img)
			s.mu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("%w: %w", auerr.ErrCorruptStore, err)
}

// decodeImage parses one whole image. Every length is checked against
// the bytes actually present before anything is allocated for it, so a
// header's claim never costs more memory than the input it came in.
// Only the canonical encoding is accepted — names in strictly increasing
// order, nothing after the last value — so a decoded image re-encodes to
// the same bytes.
func decodeImage(b []byte) (map[string][]float64, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("db: image header truncated at %d bytes", len(b))
	}
	if string(b[:4]) != storeMagic {
		return nil, fmt.Errorf("db: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != storeVersion {
		return nil, fmt.Errorf("db: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	// Every entry takes at least 8 bytes, so the hint is bounded by the
	// input too.
	data := make(map[string][]float64, min(int(count), len(b)/8))
	prev := ""
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("db: name %d of %d: length truncated", i, count)
		}
		n := uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n+4 > uint64(len(b)) {
			return nil, fmt.Errorf("db: name %d of %d: %d name bytes claimed, %d left", i, count, n, len(b))
		}
		name := string(b[:n])
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("db: name %q out of order after %q", name, prev)
		}
		prev = name
		vc := uint64(binary.LittleEndian.Uint32(b[n:]))
		b = b[n+4:]
		if 8*vc > uint64(len(b)) {
			return nil, fmt.Errorf("db: %q claims %d values, %d bytes left", name, vc, len(b))
		}
		vals := make([]float64, vc)
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		b = b[8*vc:]
		data[name] = vals
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("db: %d trailing bytes after the image", len(b))
	}
	return data, nil
}
