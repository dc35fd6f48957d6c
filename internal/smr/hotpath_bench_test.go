package smr_test

// Micro-benchmarks for the replication hot path: command encoding, slot
// wrapping (slotwrap_bench_test.go), the end-to-end submit pipeline, and
// the batcher over distance. Run with
//
//	go test -bench 'CommandEncode|SlotWrap|ReplicaPipeline|BatcherDistance' -benchmem ./internal/smr/
//
// The encode benchmarks exist to keep allocs/op honest: the pooled codec
// work (consensus.MarshalPooled, hand-spliced envelopes) is only worth its
// complexity while these stay flat.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/smr"
	"repro/internal/transport"
)

// BenchmarkCommandEncode measures Command → consensus.Value encoding (one
// pooled JSON marshal + inline FNV-1a key), the first step of every client
// submission.
func BenchmarkCommandEncode(b *testing.B) {
	cmd := smr.Command{ID: "p0-42", Op: smr.OpPut, Key: "account-1234", Val: "balance=99.50"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmd.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaPipeline measures one committed write end to end on an
// in-memory 3-replica mesh: encode, slot allocation, consensus round,
// apply, waiter wakeup through the outbox.
func BenchmarkReplicaPipeline(b *testing.B) {
	replicas, cleanup := startCluster(b, 3, 1, 1)
	defer cleanup()
	kv := smr.NewKV(replicas[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i%64), "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatcherDistance is one proposer offered more writers than a
// chunk holds, a 20 ms round trip (10 ms each way, injected on the Mesh)
// from its peers: an iteration is 256 concurrent writes, and cmds/roundtrip
// is how many of them commit per round trip of elapsed time. A batcher with
// one chunk in consensus at a time cannot exceed its chunk size, 64.
func BenchmarkBatcherDistance(b *testing.B) {
	const (
		submitters = 256
		oneWay     = 10 * time.Millisecond
	)
	// Δ = 10 ticks must outlast the round trip, or every ballot times out.
	c := newTestCluster(b, 3, 1, 1, procOptions{tick: 5 * time.Millisecond})
	c.fab.SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Delay: oneWay}
	})
	kv := smr.NewKV(c.replicas()[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// The depth is measured, not configured: let a lone writer's commits
	// tell the batcher how far away its quorum is.
	for i := 0; i < 3; i++ {
		if err := kv.Put(ctx, "warm", "up"); err != nil {
			b.Fatal(err)
		}
	}
	errs := make(chan error, submitters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < submitters; w++ {
			go func(w int) { errs <- kv.Put(ctx, fmt.Sprintf("k%d", w), "v") }(w)
		}
		for w := 0; w < submitters; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	roundTrips := float64(b.Elapsed()) / float64(2*oneWay)
	b.ReportMetric(float64(b.N*submitters)/roundTrips, "cmds/roundtrip")
	st := c.replicas()[0].BatchStats()
	b.ReportMetric(float64(st.Cmds)/float64(st.Batches), "cmds/batch")
}
