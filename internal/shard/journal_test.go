package shard

import (
	"fmt"
	"testing"

	"repro/internal/wal"
)

// TestSharedWALMinFloorTruncation checks the segment-retention rule: a
// group's TruncateBefore only raises its own floor, and segments fall only
// below the minimum floor across all groups — a group that never
// snapshots pins the whole log.
func TestSharedWALMinFloorTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSharedWAL(dir, 3, wal.Options{SegmentBytes: 256, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j0, j1, j2 := s.Group(0), s.Group(1), s.Group(2)
	var last uint64
	for i := 0; i < 60; i++ {
		idx, err := j0.AppendBuffered([]byte(fmt.Sprintf("{\"g\":%d,\"i\":%d,\"pad\":\"xxxxxxxxxxxxxxxx\"}", i%3, i)))
		if err != nil {
			t.Fatal(err)
		}
		last = idx
	}
	before := s.Stats().Segments
	if before < 3 {
		t.Fatalf("test needs multiple segments, got %d", before)
	}

	// Two groups release everything; group 2's floor stays 0, so nothing
	// may be truncated.
	if _, err := j0.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	if n, err := j1.TruncateBefore(last); err != nil || n != 0 {
		t.Fatalf("truncated %d segments with group 2 pinning floor 0 (err=%v)", n, err)
	}
	if got := s.Stats().Segments; got != before {
		t.Fatalf("segments %d -> %d despite a zero min floor", before, got)
	}

	// The last group releases too: now the min floor governs and segments
	// below it go.
	n, err := j2.TruncateBefore(last)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no segments truncated after every group raised its floor")
	}
	if got := s.Stats().Segments; got >= before {
		t.Fatalf("segments %d -> %d, want fewer", before, got)
	}

	// Floors are monotonic: a stale, smaller request must not resurrect or
	// re-truncate anything (and must not lower the recorded floor).
	if _, err := j2.TruncateBefore(1); err != nil {
		t.Fatal(err)
	}
	if s.floors[2] != last {
		t.Fatalf("floor lowered to %d by stale request, want %d", s.floors[2], last)
	}
}
