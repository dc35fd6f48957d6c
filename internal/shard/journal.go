package shard

import (
	"sync"

	"repro/internal/smr"
	"repro/internal/wal"
)

// SharedWAL is one wal.WAL serving every consensus group in a process.
// Groups append interleaved records into a single index space (the smr
// durability layer puts the group id in each record's header) and share one
// group-commit stream: the runtime's IOScheduler, built on this log, commits
// it once per batch of every group's steps, so the fsyncs of N groups
// collapse into the same fdatasyncs — the scale-out payoff `put-shard4`
// measures. Recovery demuxes by replaying the whole
// log once per group and skipping foreign records (smr filters on the
// group tag); snapshots record a per-group WAL cut-off, and segments are
// only truncated below the minimum cut-off across all groups.
type SharedWAL struct {
	w *wal.WAL

	mu sync.Mutex
	// floors[g] is group g's truncation request — the WAL index its newest
	// snapshot is consistent up to. A group that has never snapshotted
	// pins the floor at 0, keeping every segment (its state still lives
	// only in the log).
	floors []uint64
}

// OpenSharedWAL opens (or creates) the shared WAL at dir for the given
// number of groups.
func OpenSharedWAL(dir string, groups int, opts wal.Options) (*SharedWAL, wal.OpenInfo, error) {
	w, info, err := wal.Open(dir, opts)
	if err != nil {
		return nil, wal.OpenInfo{}, err
	}
	return &SharedWAL{w: w, floors: make([]uint64, groups)}, info, nil
}

// Stats reports the underlying WAL's counters (one set for the process;
// the cluster-fsyncs-per-op metric sums Syncs across processes).
func (s *SharedWAL) Stats() wal.Stats { return s.w.Stats() }

// Close syncs and closes the underlying WAL. The runtime calls it once,
// after every group's replica has shut down.
func (s *SharedWAL) Close() error { return s.w.Close() }

// Abort closes the underlying WAL without the final sync — the crash
// simulation. Queued group commits fail from here on, which is what makes
// a runtime Kill fail every group's in-flight acknowledgements instead of
// making the "crashed" state durable.
func (s *SharedWAL) Abort() error { return s.w.Abort() }

// Group returns group g's journal view, the smr.Journal its replica's
// durability layer writes through.
func (s *SharedWAL) Group(g int) smr.Journal { return &groupJournal{s: s, g: g} }

// groupJournal adapts the shared WAL to one group's smr.Journal. Appends
// and replays hit the shared log directly (the index space is shared;
// filtering is the reader's job via the record's group tag), and the
// runtime's IOScheduler commits them. Truncation differs: see
// TruncateBefore. The view has no lifecycle — the runtime aborts and closes
// the shared WAL itself.
type groupJournal struct {
	s *SharedWAL
	g int
}

func (j *groupJournal) AppendBuffered(payload []byte) (uint64, error) {
	return j.s.w.AppendBuffered(payload)
}

func (j *groupJournal) Sync() error       { return j.s.w.Sync() }
func (j *groupJournal) NextIndex() uint64 { return j.s.w.NextIndex() }

func (j *groupJournal) Replay(from uint64, fn func(index uint64, payload []byte) error) (wal.ReplayInfo, error) {
	return j.s.w.Replay(from, fn)
}

// TruncateBefore records the group's floor and truncates the shared WAL
// below the minimum floor across all groups: a segment may only go once no
// group needs it for recovery. The index passed by a group that snapshots
// rarely simply keeps the tail long — correctness never depends on
// truncation happening.
func (j *groupJournal) TruncateBefore(index uint64) (int, error) {
	j.s.mu.Lock()
	if index > j.s.floors[j.g] {
		j.s.floors[j.g] = index
	}
	min := j.s.floors[0]
	for _, f := range j.s.floors[1:] {
		if f < min {
			min = f
		}
	}
	j.s.mu.Unlock()
	// Out of the floor lock: truncation takes the WAL's own lock, and a
	// racing truncation with a smaller minimum is a harmless no-op.
	return j.s.w.TruncateBefore(min)
}
