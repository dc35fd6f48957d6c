package smr

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/wal"
)

// TestIOSchedulerMinFloorTruncation checks the segment-retention rule: a
// group's truncation request only raises its own floor, and segments fall
// only below the minimum floor across all groups — a group that never
// snapshots pins the whole log.
func TestIOSchedulerMinFloorTruncation(t *testing.T) {
	w, _, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewIOScheduler(w, 3)
	defer s.Close()

	var last uint64
	for i := 0; i < 60; i++ {
		idx, err := w.AppendBuffered([]byte(fmt.Sprintf("{\"g\":%d,\"i\":%d,\"pad\":\"xxxxxxxxxxxxxxxx\"}", i%3, i)))
		if err != nil {
			t.Fatal(err)
		}
		last = idx
	}
	before := w.Stats().Segments
	if before < 3 {
		t.Fatalf("test needs multiple segments, got %d", before)
	}

	// Two groups release everything; group 2's floor stays 0, so nothing
	// may be truncated.
	if _, err := s.truncateBefore(0, last); err != nil {
		t.Fatal(err)
	}
	if n, err := s.truncateBefore(1, last); err != nil || n != 0 {
		t.Fatalf("truncated %d segments with group 2 pinning floor 0 (err=%v)", n, err)
	}
	if got := w.Stats().Segments; got != before {
		t.Fatalf("segments %d -> %d despite a zero min floor", before, got)
	}

	// The last group releases too: now the min floor governs and segments
	// below it go.
	n, err := s.truncateBefore(2, last)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no segments truncated after every group raised its floor")
	}
	if got := w.Stats().Segments; got >= before {
		t.Fatalf("segments %d -> %d, want fewer", before, got)
	}

	// Floors are monotonic: a stale, smaller request must not resurrect or
	// re-truncate anything (and must not lower the recorded floor).
	if _, err := s.truncateBefore(2, 1); err != nil {
		t.Fatal(err)
	}
	if s.floors[2] != last {
		t.Fatalf("floor lowered to %d by stale request, want %d", s.floors[2], last)
	}
}

// TestIOSchedulerFloorPinsUnbuiltGroup: a group pins the log from the moment
// the scheduler opens it, not from when its replica is built. Group 1 writes
// and never snapshots, so its state lives only in the log; on reopen, group 0
// writes, snapshots on every command and asks to truncate behind each
// snapshot, all before group 1's replica exists. Group 1 must then still
// recover every write it made.
func TestIOSchedulerFloorPinsUnbuiltGroup(t *testing.T) {
	dir := t.TempDir()
	cfg := consensus.Config{ID: 0, N: 1, F: 0, E: 0, Delta: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const writes = 20
	open := func() (*wal.WAL, *IOScheduler) {
		w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		return w, NewIOScheduler(w, 2)
	}
	group := func(io *IOScheduler, g int) (*Replica, RecoveryInfo) {
		every := -1 // group 1 never snapshots
		if g == 0 {
			every = 1
		}
		r, info, err := NewReplica(cfg, time.Millisecond, io, FixedLeaders{}, nil, ReplicaOptions{
			Durability: &DurabilityOptions{Group: g, SnapshotEvery: every},
		})
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		r.Start()
		return r, info
	}
	put := func(r *Replica, g, i int) {
		if err := r.Put(ctx, fmt.Sprintf("g%d-k%d", g, i), "v"); err != nil {
			t.Fatalf("group %d write %d: %v", g, i, err)
		}
	}

	w, io := open()
	r1, _ := group(io, 1)
	for i := 0; i < writes; i++ {
		put(r1, 1, i)
	}
	r1.Close()
	io.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, io = open()
	defer w.Close()
	defer io.Close()
	r0, _ := group(io, 0)
	defer r0.Close()
	for i := 0; i < writes; i++ {
		put(r0, 0, i)
	}
	r1, info := group(io, 1)
	defer r1.Close()
	if info.Applied != writes {
		t.Fatalf("group 1 recovered %+v, want %d writes applied", info, writes)
	}
	for i := 0; i < writes; i++ {
		if _, ok := r1.Get(fmt.Sprintf("g1-k%d", i)); !ok {
			t.Fatalf("group 1 lost g1-k%d", i)
		}
	}
}
