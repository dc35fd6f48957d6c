package smr_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
)

// Under concurrency the batcher groups whatever arrives while a flush is in
// flight, so consensus instances < commands.
func TestBatchingGroupsConcurrentWrites(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 2)
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := replicas[0]

	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := kv.Put(ctx, fmt.Sprintf("b%d", i), "v"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All writes visible.
	for i := 0; i < writers; i++ {
		if _, ok := kv.Get(fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("b%d missing", i)
		}
	}
	// And they occupied fewer slots than writes (batching happened).
	if applied := replicas[0].Applied(); applied >= writers {
		t.Fatalf("applied %d slots for %d writes: no batching observed", applied, writers)
	}
	st := replicas[0].BatchStats()
	if st.Cmds != writers {
		t.Fatalf("cmds = %d, want %d", st.Cmds, writers)
	}
	if st.Batches >= writers {
		t.Fatalf("%d batches for %d concurrent writes: no coalescing", st.Batches, writers)
	}
}

func TestBatchingPreservesAgreementAcrossProxies(t *testing.T) {
	c := newTestCluster(t, 5, 2, 1, procOptions{})
	c.pinLogs()
	replicas := c.replicas()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, len(replicas)*4)
	for ri, r := range replicas {
		ri, r := ri, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv := r
			for j := 0; j < 4; j++ {
				if err := kv.Put(ctx, fmt.Sprintf("p%d-%d", ri, j), "v"); err != nil {
					errs <- fmt.Errorf("proxy %d: %w", ri, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Logs agree slot by slot across replicas (where both have them).
	max := replicas[0].Applied()
	for slot := 0; slot < max; slot++ {
		v0, ok := replicas[0].LogValue(slot)
		if !ok {
			continue
		}
		for i, r := range replicas[1:] {
			if v, ok := r.LogValue(slot); ok && v != v0 {
				t.Fatalf("replica %d slot %d disagrees", i+1, slot)
			}
		}
	}
}

// An OpBatch is one command to the batcher: its writes occupy one log slot,
// so every replica applies either all of them or none, with no interleaved
// foreign writes.
func TestOpBatchIsAtomic(t *testing.T) {
	replicas, cleanup := startCluster(t, 3, 1, 1)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	kvs := map[string]string{"a": "1", "b": "2", "c": "3"}
	if err := replicas[0].Submit(ctx, batchOf(kvs)); err != nil {
		t.Fatal(err)
	}
	// All three writes visible, and they occupy exactly one slot.
	for k, want := range kvs {
		if got, ok := replicas[0].Get(k); !ok || got != want {
			t.Fatalf("%s = %q ok=%v", k, got, ok)
		}
	}
	if applied := replicas[0].Applied(); applied != 1 {
		t.Fatalf("applied %d slots, want 1 (atomic batch)", applied)
	}
}

// batchOf is one OpBatch command putting every pair of kvs, in key order.
func batchOf(kvs map[string]string) smr.Command {
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batch := smr.Command{Op: smr.OpBatch}
	for i, k := range keys {
		batch.Subs = append(batch.Subs, smr.Command{ID: fmt.Sprintf("sub-%d", i), Op: smr.OpPut, Key: k, Val: kvs[k]})
	}
	return batch
}

// The Command encoding must carry strings encoding/json would have escaped,
// nested batches included, byte for byte.
func TestCommandEncodeEscaping(t *testing.T) {
	cmd := smr.Command{
		ID: "p0-\"quoted\"-1",
		Op: smr.OpBatch,
		Subs: []smr.Command{
			{ID: "a\tb", Op: smr.OpPut, Key: "ké☃", Val: "line\nbreak \U0001F600"},
			{ID: `back\slash`, Op: smr.OpDelete, Key: "<&>"},
			{ID: "c", Op: smr.OpNoop},
		},
	}
	v, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := smr.DecodeCommand(v)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cmd) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cmd)
	}
}

func TestBatchCommandRoundTrip(t *testing.T) {
	batch := smr.Command{
		ID: "p0-batch-1",
		Op: smr.OpBatch,
		Subs: []smr.Command{
			{ID: "a", Op: smr.OpPut, Key: "x", Val: "1"},
			{ID: "b", Op: smr.OpDelete, Key: "y"},
		},
	}
	v, err := batch.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := smr.DecodeCommand(v)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(batch) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Equal(smr.Command{ID: "p0-batch-1", Op: smr.OpBatch}) {
		t.Fatal("Equal ignores Subs")
	}
}
