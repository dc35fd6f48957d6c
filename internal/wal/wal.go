package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost, at the cost of one fsync per protocol step.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to the host, which calls Sync on a timer.
	// A crash loses at most one interval of records — all of them records
	// whose effects a peer may already have seen, so the host must size
	// the interval against its durability contract. The WAL itself owns no
	// clock (see the package comment).
	SyncInterval
	// SyncNever never fsyncs on the append path; the OS flushes at its
	// leisure. Rotation and Close still sync, so a graceful shutdown is
	// durable while a crash may lose the entire active segment.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// ErrFailpoint is the injected crash: a write failed (possibly mid-record)
// because Options.FailpointLimit was reached. The WAL is poisoned from then
// on, exactly as if the process had died in the write.
var ErrFailpoint = errors.New("wal: injected write failure (failpoint)")

// Options configure a WAL.
type Options struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// FailpointLimit injects a crash for the fault-injection tests and the
	// recovery bench: when > 0, file writes fail with ErrFailpoint once the
	// WAL has written this many bytes in total, and the write that crosses
	// the limit is cut short mid-record — a torn write, as left by a real
	// crash or power loss.
	FailpointLimit int64
	// SyncHook, when set, runs outside the WAL lock immediately before each
	// group-commit fsync. Tests use it to stall or count syncs; production
	// code leaves it nil.
	SyncHook func()
}

// OpenInfo reports what Open found on disk.
type OpenInfo struct {
	// TornTail is true when the tail of the log held a short or corrupt
	// record (crash mid-write); the tail was truncated at the last valid
	// record and appends continue from there.
	TornTail bool
	// NextIndex is the index the next appended record will get.
	NextIndex uint64
}

// ReplayInfo reports what a Replay pass delivered.
type ReplayInfo struct {
	// Records is the number of valid records delivered to the callback.
	Records int
	// TornTail is true when the replay stopped at a short or corrupt
	// record at the tail of the last segment.
	TornTail bool
}

// Stats is the WAL's size surface, exposed through the replicas' INFO
// command.
type Stats struct {
	Segments  int
	Bytes     int64
	NextIndex uint64
	// Syncs counts group-commit fsyncs of the active segment. With many
	// concurrent committers it grows slower than the record count — that
	// ratio is the group-commit metric (benchmark/'s wal.fsyncs_per_op).
	Syncs uint64
}

// WAL is a segmented append-only log. The first record has index 1; indexes
// are assigned by Append and are contiguous. All methods are safe for
// concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active segment
	size    int64    // active segment size in bytes
	next    uint64   // index of the next record to append
	segs    []segmentInfo
	written int64 // total bytes written, for the failpoint
	failed  error // sticky write error; the WAL is poisoned once set
	closed  bool

	// Group commit: one committer at a time becomes the sync leader, drops
	// the lock, fsyncs, and publishes the result; everyone else waits on
	// sc. durable is the highest index known to be on stable storage.
	durable uint64
	syncing bool
	sc      *sync.Cond
	syncs   uint64 // successful fsyncs of the active segment
}

// Open opens (or creates) the log in dir. A torn tail left by a crash
// mid-write is truncated away so appends continue after the last valid
// record; OpenInfo reports that it happened.
func Open(dir string, opts Options) (*WAL, OpenInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, OpenInfo{}, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, next: 1}
	w.sc = sync.NewCond(&w.mu)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, OpenInfo{}, err
	}
	w.segs = segs

	var info OpenInfo
	// Walk the segments from the back: the last one holding a valid header
	// becomes the active segment; a segment too torn to even parse its
	// header can hold no records and is removed.
	for len(w.segs) > 0 {
		last := w.segs[len(w.segs)-1]
		torn, err := w.adoptSegment(last)
		if err == nil {
			info.TornTail = info.TornTail || torn
			break
		}
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			return nil, OpenInfo{}, err
		}
		if rmErr := os.Remove(last.path); rmErr != nil {
			return nil, OpenInfo{}, fmt.Errorf("wal: drop torn segment: %w", rmErr)
		}
		w.segs = w.segs[:len(w.segs)-1]
		info.TornTail = true
	}
	if len(w.segs) == 0 {
		if err := w.newSegmentLocked(w.next); err != nil {
			return nil, OpenInfo{}, err
		}
	}
	info.NextIndex = w.next
	// Everything recovered from disk predates this process; treat it as
	// durable so the first Commit only pays for records appended since.
	w.durable = w.next - 1
	return w, info, nil
}

// adoptSegment scans seg, truncates any torn tail, and makes it the active
// segment. It reports whether a torn tail was truncated. An unreadable
// header returns ErrTorn/ErrCorrupt so Open can discard the segment.
func (w *WAL) adoptSegment(seg segmentInfo) (torn bool, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	first, err := parseSegmentHeader(data)
	if err != nil {
		return false, err
	}
	if first != seg.first {
		return false, ErrCorrupt
	}
	valid := int64(segmentHeaderSize)
	next := first
	rest := data[segmentHeaderSize:]
	for len(rest) > 0 {
		idx, _, n, err := DecodeRecord(rest)
		if err != nil {
			torn = true
			break
		}
		next = idx + 1
		valid += int64(n)
		rest = rest[n:]
	}
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return false, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return false, fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.size = valid
	if next > w.next {
		w.next = next
	}
	return torn, nil
}

// Append adds one record and returns its index. Under SyncAlways the record
// is on stable storage when Append returns — via the group-commit path, so
// concurrent Append callers share one fsync; the other policies defer
// durability to Sync (host-driven) or the OS.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx, err := w.appendLocked(payload)
	if err != nil {
		return 0, err
	}
	if w.opts.Policy == SyncAlways {
		if err := w.commitLocked(idx); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// AppendBuffered adds one record without waiting for durability, under any
// policy. The caller must pass the returned index to Commit before acting
// on the record's durability (the persist-before-flush invariant); hosts
// that batch — the replica outbox — commit once for many buffered appends.
func (w *WAL) AppendBuffered(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payload)
}

// appendLocked writes one record to the active segment without syncing.
func (w *WAL) appendLocked(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	if err := w.usableLocked(); err != nil {
		return 0, err
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	idx := w.next
	if err := w.writeLocked(EncodeRecord(idx, payload)); err != nil {
		return 0, err
	}
	w.next = idx + 1
	return idx, nil
}

// Commit blocks until every record with index ≤ index is on stable storage.
// Concurrent committers elect a leader: the first one in fsyncs once for
// everything written so far while the rest wait on the result — one
// fdatasync amortized over the whole group. Returns immediately when the
// range is already durable.
func (w *WAL) Commit(index uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	return w.commitLocked(index)
}

// commitLocked is the group-commit core. It may drop and retake w.mu (the
// leader fsyncs outside the lock); callers must re-validate any cached
// state afterwards.
func (w *WAL) commitLocked(index uint64) error {
	for {
		if w.failed != nil {
			return w.failed
		}
		if w.closed {
			return fmt.Errorf("wal: closed")
		}
		if w.durable >= index {
			return nil
		}
		if w.syncing {
			// A leader is in flight; its sync may or may not cover index
			// (records appended after it captured its target miss the
			// window). The loop re-checks after the broadcast.
			w.sc.Wait()
			continue
		}
		// Become the sync leader: everything written so far rides along.
		w.syncing = true
		target := w.next - 1
		f := w.f
		hook := w.opts.SyncHook
		w.mu.Unlock()
		if hook != nil {
			hook()
		}
		err := f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.failed = err
		} else {
			w.syncs++
			if target > w.durable {
				w.durable = target
			}
		}
		w.sc.Broadcast()
	}
}

// Sync flushes the active segment to stable storage. Hosts using
// SyncInterval call this from their timer. It rides the group-commit path,
// so a Sync that races appenders' commits costs no extra fsync.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	return w.commitLocked(w.next - 1)
}

// Stats reports segment count and on-disk bytes.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Stats{Segments: len(w.segs), NextIndex: w.next, Syncs: w.syncs}
	for _, seg := range w.segs {
		if fi, err := os.Stat(seg.path); err == nil {
			s.Bytes += fi.Size()
		}
	}
	return s
}

// TruncateBefore removes segments every record of which has index < index
// (obsolete once a snapshot covers them). The active segment is never
// removed. It returns the number of segments removed.
func (w *WAL) TruncateBefore(index uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	removed := 0
	for len(w.segs) > 1 && w.segs[1].first <= index {
		if err := os.Remove(w.segs[0].path); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return removed, nil
}

// Replay streams every record with index ≥ from, in index order, to fn. A
// short or corrupt record at the tail of the LAST segment stops the replay
// cleanly (ReplayInfo.TornTail); the same damage in a sealed segment is
// data loss beyond the tail and returns an error. A non-nil error from fn
// aborts the replay.
func (w *WAL) Replay(from uint64, fn func(index uint64, payload []byte) error) (ReplayInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var info ReplayInfo
	for i, seg := range w.segs {
		last := i == len(w.segs)-1
		if !last && w.segs[i+1].first <= from {
			continue // the whole segment is below the replay floor
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return info, fmt.Errorf("wal: replay: %w", err)
		}
		if _, err := parseSegmentHeader(data); err != nil {
			if last {
				info.TornTail = true
				return info, nil
			}
			return info, fmt.Errorf("wal: replay: segment %s: %w", seg.path, err)
		}
		rest := data[segmentHeaderSize:]
		for len(rest) > 0 {
			idx, payload, n, err := DecodeRecord(rest)
			if err != nil {
				if last {
					info.TornTail = true
					return info, nil
				}
				return info, fmt.Errorf("wal: replay: segment %s: %w", seg.path, err)
			}
			if idx >= from {
				if err := fn(idx, payload); err != nil {
					return info, err
				}
				info.Records++
			}
			rest = rest[n:]
		}
	}
	return info, nil
}

// Close syncs and closes the active segment. Close always syncs — graceful
// shutdown must be durable under every policy — so a SIGTERM'd replica
// recovers without relying on the torn-tail path.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.awaitSyncLocked()
	w.closed = true
	w.sc.Broadcast() // release committers queued behind the closed flag
	if w.f == nil {
		return nil
	}
	var err error
	if w.failed == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Abort closes the WAL without the final sync — the crash-simulation twin
// of Close, for harnesses that restart a replica in-process through its
// real recovery path. Buffered records that were never committed are
// abandoned exactly as a power cut would abandon them (modulo OS page
// cache: an in-process abort cannot unwrite bytes the kernel already has;
// torn-write injection is FailpointLimit's job). In-flight group commits
// finish first — their records were durable before the "crash".
func (w *WAL) Abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.awaitSyncLocked()
	w.closed = true
	w.sc.Broadcast() // release committers queued behind the closed flag
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// usableLocked rejects operations on a closed or poisoned WAL.
func (w *WAL) usableLocked() error {
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if w.failed != nil {
		return w.failed
	}
	return nil
}

// rotateLocked seals the active segment (sync + close) and starts a new one
// at the current next index. It first waits out any in-flight group-commit
// leader, which fsyncs the captured file handle outside the lock.
func (w *WAL) rotateLocked() error {
	w.awaitSyncLocked()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.failed = err
		return err
	}
	w.syncs++
	w.durable = w.next - 1 // the sealed segment holds everything written
	if err := w.f.Close(); err != nil {
		w.failed = err
		return err
	}
	w.f = nil
	return w.newSegmentLocked(w.next)
}

// awaitSyncLocked blocks until no group-commit leader is mid-fsync. Callers
// that close or replace the active file handle (rotation, Close) must wait
// it out first.
func (w *WAL) awaitSyncLocked() {
	for w.syncing {
		w.sc.Wait()
	}
}

// newSegmentLocked creates and adopts a fresh segment starting at first.
func (w *WAL) newSegmentLocked(first uint64) error {
	path := filepath.Join(w.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	w.f = f
	w.size = 0
	w.segs = append(w.segs, segmentInfo{path: path, first: first})
	if err := w.writeLocked(encodeSegmentHeader(first)); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		w.failed = err
		return err
	}
	return nil
}

// writeLocked writes b to the active segment, honouring the injected
// failpoint: when the limit is crossed the write is cut short mid-buffer —
// a torn write — and the WAL is poisoned.
func (w *WAL) writeLocked(b []byte) error {
	if w.opts.FailpointLimit > 0 {
		remain := w.opts.FailpointLimit - w.written
		if remain <= 0 {
			w.failed = ErrFailpoint
			return w.failed
		}
		if int64(len(b)) > remain {
			n, _ := w.f.Write(b[:remain])
			w.written += int64(n)
			w.size += int64(n)
			w.f.Sync() // make the torn bytes visible, as a crash would
			w.failed = ErrFailpoint
			return w.failed
		}
	}
	n, err := w.f.Write(b)
	w.written += int64(n)
	w.size += int64(n)
	if err != nil {
		w.failed = err
		return err
	}
	return nil
}
