package db

import "fmt"

// Compaction: the log is collapsed into a snapshot record at the head of
// a fresh segment ("snapshot+tail"). The protocol is crash-safe without
// multi-file atomic operations because a snapshot record *resets* the
// replayed state — if the process dies after the new segment is durable
// but before the old segments are unlinked, replay applies the stale
// segments first and the snapshot then supersedes them.
//
// Ordering: callers must guarantee no record is appended between taking
// the state snapshot and Compact returning (the durable store holds the
// store mutex across both; the queue holds its own).

// Record is one typed WAL record, used to hand compaction snapshots to
// the WAL.
type Record struct {
	Type    byte
	Payload []byte
}

// Compact seals the log into the given snapshot records: they become the
// head of a fresh segment, and every older segment is removed. The WAL
// stays open for appends (the "tail" grows behind the snapshot).
func (w *WAL) Compact(snapshot []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	old, err := listSegments(w.dir)
	if err != nil {
		return fmt.Errorf("db: wal: %w", err)
	}
	if err := w.createSegment(w.seg + 1); err != nil {
		w.err = err
		return err
	}
	for _, rec := range snapshot {
		if err := w.appendLocked(rec.Type, rec.Payload); err != nil {
			return err
		}
	}
	// The snapshot is durable (createSegment and appendLocked sync under
	// the default policy); the stale prefix can go.
	if err := removeSegments(w.dir, old); err != nil {
		return fmt.Errorf("db: wal: %w", err)
	}
	w.total = w.segSize
	w.segs = 1
	w.sinceComp = 0
	if w.m != nil {
		w.m.compactions.Inc()
	}
	w.publishGauges()
	return nil
}

// SinceCompaction reports bytes appended since the last compaction (or
// open).
func (w *WAL) SinceCompaction() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sinceComp
}
