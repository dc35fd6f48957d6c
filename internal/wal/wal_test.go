package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/wal"
)

// collect replays the log from `from` into a map and a flat index list.
func collect(t *testing.T, w *wal.WAL, from uint64) (map[uint64]string, []uint64, wal.ReplayInfo) {
	t.Helper()
	got := make(map[uint64]string)
	var order []uint64
	info, err := w.Replay(from, func(idx uint64, payload []byte) error {
		got[idx] = string(payload)
		order = append(order, idx)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, order, info
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, info, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.TornTail || info.NextIndex != 1 {
		t.Fatalf("fresh open info = %+v", info)
	}
	const records = 20
	for i := 0; i < records; i++ {
		idx, err := w.Append([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i+1) {
			t.Fatalf("append %d got index %d", i, idx)
		}
	}
	got, order, rinfo := collect(t, w, 0)
	if rinfo.TornTail || rinfo.Records != records {
		t.Fatalf("replay info = %+v", rinfo)
	}
	for i := 0; i < records; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d = %q", i+1, got[uint64(i+1)])
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("replay out of order: %v", order)
		}
	}
	// Replay from the middle.
	_, order, _ = collect(t, w, 11)
	if len(order) != 10 || order[0] != 11 {
		t.Fatalf("partial replay = %v", order)
	}
}

func TestReopenContinuesIndices(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.TornTail {
		t.Fatal("clean close reported a torn tail")
	}
	if info.NextIndex != 6 {
		t.Fatalf("next index after reopen = %d, want 6", info.NextIndex)
	}
	if idx, err := w2.Append([]byte("y")); err != nil || idx != 6 {
		t.Fatalf("append after reopen: idx=%d err=%v", idx, err)
	}
}

func TestRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates after roughly two appends.
	w, _, err := wal.Open(dir, wal.Options{SegmentBytes: 64, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const records = 30
	for i := 0; i < records; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if _, _, info := collect(t, w, 0); info.Records != records {
		t.Fatalf("replayed %d records, want %d", info.Records, records)
	}

	// Truncating behind index 20 must keep every record ≥ 20 replayable.
	removed, err := w.TruncateBefore(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing truncated")
	}
	got, _, _ := collect(t, w, 20)
	for i := uint64(20); i <= records; i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("record %d lost by truncation", i)
		}
	}
	// The log still appends and the indices continue.
	if idx, err := w.Append([]byte("after-truncate")); err != nil || idx != records+1 {
		t.Fatalf("append after truncate: idx=%d err=%v", idx, err)
	}
}

func TestReplayIsRepeatable(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 12; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first, orderA, _ := collect(t, w, 0)
	second, orderB, _ := collect(t, w, 0)
	if len(first) != len(second) || len(orderA) != len(orderB) {
		t.Fatalf("replay not repeatable: %d vs %d records", len(orderA), len(orderB))
	}
	for idx, v := range first {
		if second[idx] != v {
			t.Fatalf("record %d differs across replays", idx)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, wal.MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}
