package db

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"
)

// WAL is a segmented append-only write-ahead log with CRC-framed
// records. It is the durability substrate under both the database store
// π (OpenDurable) and the training job queue (internal/queue): callers
// append typed records, and on reopen the log replays every intact
// record in order.
//
// Crash contract: replay truncates a torn tail — an interrupted write at
// the end of the newest segment — back to the last valid record and
// keeps the prefix, while any damage to records that were once durably
// synced (mid-file or in a sealed segment) fails the open with an error
// wrapping auerr.ErrCorruptStore. See scanSegment for the exact
// classification rules.
type WAL struct {
	dir  string
	opts WALOptions

	mu        sync.Mutex
	f         *os.File // active segment, positioned at its end
	seg       uint64   // active segment index
	segSize   int64    // bytes in the active segment
	total     int64    // bytes across all live segments
	segs      int      // live segment count
	err       error    // sticky first write error
	recovered *Recovery

	m *walMetrics
}

// WALOptions tunes a WAL. The zero value gives fsync'd appends, 4 MiB
// segments and a 256 MiB record cap.
type WALOptions struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends then reach the OS page
	// cache only; Sync or Close flushes them. Tests and bulk loads use
	// this, durable queues should not.
	NoSync bool
	// MaxRecordBytes caps a single record body (default 256 MiB);
	// larger appends fail, and replay treats larger claimed lengths as
	// corruption.
	MaxRecordBytes int
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 256 << 20
	}
	return o
}

// Recovery describes a torn tail dropped during replay; nil when the log
// was clean.
type Recovery struct {
	// Segment is the file the tail was truncated from.
	Segment string
	// DroppedBytes is how many trailing bytes were discarded.
	DroppedBytes int64
}

// walMetrics instruments WAL traffic process-wide, following the lazy
// resolution pattern of the other stores: nil until telemetry is on.
type walMetrics struct {
	appends     *obs.Counter
	bytes       *obs.Counter
	fsync       *obs.Histogram
	rotations   *obs.Counter
	compactions *obs.Counter
	truncations *obs.Counter
	replayed    *obs.Counter
	size        *obs.Gauge
	segments    *obs.Gauge
}

var wm atomic.Pointer[walMetrics]

func walMetricsGet() *walMetrics {
	if m := wm.Load(); m != nil {
		return m
	}
	reg := obs.Default()
	if reg == nil {
		return nil
	}
	m := &walMetrics{
		appends: reg.Counter("autonomizer_wal_appends_total",
			"Records appended across all write-ahead logs.", nil),
		bytes: reg.Counter("autonomizer_wal_bytes_total",
			"Framed bytes appended across all write-ahead logs.", nil),
		fsync: reg.Histogram("autonomizer_wal_fsync_seconds",
			"Latency of per-append fsync calls.", nil, nil),
		rotations: reg.Counter("autonomizer_wal_rotations_total",
			"Segment rotations.", nil),
		compactions: reg.Counter("autonomizer_wal_compactions_total",
			"Snapshot+tail compactions.", nil),
		truncations: reg.Counter("autonomizer_wal_torn_truncations_total",
			"Torn tails truncated during replay.", nil),
		replayed: reg.Counter("autonomizer_wal_replayed_records_total",
			"Records replayed on open.", nil),
		size: reg.Gauge("autonomizer_wal_size_bytes",
			"Bytes across live segments of the most recently touched WAL.", nil),
		segments: reg.Gauge("autonomizer_wal_segments",
			"Live segment count of the most recently touched WAL.", nil),
	}
	if !wm.CompareAndSwap(nil, m) {
		return wm.Load()
	}
	return m
}

// resetWALMetricsForTest drops the cached instruments so tests can
// attach a fresh registry.
func resetWALMetricsForTest() { wm.Store(nil) }

// OpenWAL opens (creating if necessary) the write-ahead log in dir and
// replays every intact record through replay in append order. A torn
// tail is truncated (see Recovered); mid-file corruption, an unreadable
// directory, or a replay callback error fail the open with an error
// wrapping auerr.ErrCorruptStore. A nil replay skips delivery but still
// validates and recovers the log.
func OpenWAL(dir string, opts WALOptions, replay func(typ byte, payload []byte) error) (*WAL, error) {
	w := &WAL{dir: dir, opts: opts.withDefaults(), m: walMetricsGet()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	if len(idxs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
		w.publishGauges()
		return w, nil
	}
	for i, idx := range idxs {
		final := i == len(idxs)-1
		if err := w.replaySegment(idx, final, replay); err != nil {
			return nil, err
		}
	}
	// Reopen the newest segment for appending.
	last := idxs[len(idxs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	if st.Size() < segHeaderSize {
		// The torn-tail truncation cut into the header: rewrite it.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("db: wal: %w", err)
		}
		if err := writeSegHeader(f, last); err != nil {
			f.Close()
			return nil, fmt.Errorf("db: wal: %w", err)
		}
		st, err = f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("db: wal: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("db: wal: %w", err)
	}
	w.f, w.seg, w.segSize = f, last, st.Size()
	w.segs = len(idxs)
	w.total = 0
	for _, idx := range idxs {
		if fi, err := os.Stat(filepath.Join(dir, segName(idx))); err == nil {
			w.total += fi.Size()
		}
	}
	w.publishGauges()
	return w, nil
}

// replaySegment loads one segment, delivers its records, and performs
// torn-tail truncation when idx is the final segment.
func (w *WAL) replaySegment(idx uint64, final bool, replay func(typ byte, payload []byte) error) error {
	path := filepath.Join(w.dir, segName(idx))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: db: wal: %w", auerr.ErrCorruptStore, err)
	}
	n := 0
	deliver := func(typ byte, payload []byte) error {
		n++
		if replay == nil {
			return nil
		}
		return replay(typ, payload)
	}
	scanErr := scanSegment(data, idx, w.opts.MaxRecordBytes, final, deliver)
	if torn, ok := scanErr.(*tornTailError); ok {
		if err := os.Truncate(path, torn.off); err != nil {
			return fmt.Errorf("%w: db: wal: truncating torn tail: %w", auerr.ErrCorruptStore, err)
		}
		w.recovered = &Recovery{Segment: segName(idx), DroppedBytes: int64(len(data)) - torn.off}
		if w.m != nil {
			w.m.truncations.Inc()
		}
		data = data[:torn.off]
		scanErr = nil
	}
	if scanErr != nil {
		return fmt.Errorf("%w: %w", auerr.ErrCorruptStore, scanErr)
	}
	if w.m != nil {
		w.m.replayed.Add(uint64(n))
	}
	return nil
}

// createSegment makes segment idx the active one, durably.
func (w *WAL) createSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(idx)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("db: wal: %w", err)
	}
	if err := writeSegHeader(f, idx); err != nil {
		f.Close()
		return fmt.Errorf("db: wal: %w", err)
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("db: wal: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return fmt.Errorf("db: wal: %w", err)
		}
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.seg, w.segSize = f, idx, segHeaderSize
	w.total += segHeaderSize
	w.segs++
	return nil
}

// Append frames one record, writes it to the active segment and — unless
// NoSync — fsyncs before returning, so a returned nil means the record
// survives a crash. The segment is rotated first when full. After a
// write error the WAL is sticky-failed: every later Append returns the
// first error (the log's tail state on disk is unknowable, so pretending
// later writes succeeded would reorder the log).
func (w *WAL) Append(typ byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(typ, payload)
}

func (w *WAL) appendLocked(typ byte, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload)+1 > w.opts.MaxRecordBytes {
		return fmt.Errorf("db: wal: record of %d bytes exceeds cap %d", len(payload)+1, w.opts.MaxRecordBytes)
	}
	frame := encodeFrame(typ, payload)
	if w.segSize > segHeaderSize && w.segSize+int64(len(frame)) > w.opts.SegmentBytes {
		if err := w.createSegment(w.seg + 1); err != nil {
			w.err = err
			return err
		}
		if w.m != nil {
			w.m.rotations.Inc()
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("db: wal: %w", err)
		return w.err
	}
	w.segSize += int64(len(frame))
	w.total += int64(len(frame))
	if !w.opts.NoSync {
		var tm obs.Timer
		if w.m != nil {
			tm = w.m.fsync.Timer()
		}
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("db: wal: %w", err)
			return w.err
		}
		tm.Stop()
	}
	if w.m != nil {
		w.m.appends.Inc()
		w.m.bytes.Add(uint64(len(frame)))
	}
	w.publishGauges()
	return nil
}

func (w *WAL) publishGauges() {
	if w.m == nil {
		return
	}
	w.m.size.Set(float64(w.total))
	w.m.segments.Set(float64(w.segs))
}

// Sync flushes the active segment to stable storage (a no-op when every
// append already fsyncs).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("db: wal: %w", err)
	}
	return w.err
}

// Close flushes and closes the active segment. The WAL must not be used
// afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if w.err == nil && syncErr != nil {
		w.err = fmt.Errorf("db: wal: %w", syncErr)
	}
	if w.err == nil && closeErr != nil {
		w.err = fmt.Errorf("db: wal: %w", closeErr)
	}
	return w.err
}

// Err reports the sticky first write error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Recovered reports the torn tail dropped during open, nil for a clean
// log.
func (w *WAL) Recovered() *Recovery { return w.recovered }

// SizeBytes reports the byte footprint across live segments.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Segments reports the live segment count.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segs
}

// Dir reports the directory the WAL lives in.
func (w *WAL) Dir() string { return w.dir }
