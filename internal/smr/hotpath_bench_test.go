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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
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

// BenchmarkReplicaPipeline measures one committed write end to end on a
// Mesh of journaling processes (fsync off, so ns/op is the stack and not the
// disk): encode, slot allocation, consensus round, journal records, apply,
// waiter wakeup through the outbox. Besides allocs/op it reports the write
// budget without a 50 s benchmark run — sends/op (slot messages delivered;
// heartbeats and Status gossip, which follow the clock and not the load, are
// left out; the Figure-1 fast path is 3(n−1)+e) and walrecs/op (2n) —
// counted once the cluster has gone quiet, so whatever a decided slot goes
// on saying is charged to the write.
func BenchmarkReplicaPipeline(b *testing.B) {
	for _, tc := range []struct{ n, f, e int }{{3, 1, 1}, {5, 2, 2}} {
		b.Run(fmt.Sprintf("n%d", tc.n), func(b *testing.B) {
			dur := durableUnder(b.TempDir(), nil)
			c := newTestCluster(b, tc.n, tc.f, tc.e, procOptions{dur: func(i int) *shard.Durability {
				d := dur(i)
				d.Policy, d.SnapshotEvery = wal.SyncNever, -1
				return d
			}})
			var slotMsgs atomic.Uint64
			for i := range c.rts {
				c.tap(i, func(msg consensus.Message) {
					if gm, ok := msg.(*shard.GroupMessage); ok && gm.InnerKind == smr.KindSlot {
						slotMsgs.Add(1)
					}
				})
			}
			cost := func() (sends, recs uint64) {
				time.Sleep(200 * time.Millisecond) // 20Δ: past any re-announcement
				for _, rt := range c.rts {
					st, _ := rt.WalStats()
					recs += st.NextIndex
				}
				return slotMsgs.Load(), recs
			}
			kv := smr.NewKV(c.replicas()[0])
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			if err := kv.Put(ctx, "warm", "up"); err != nil {
				b.Fatal(err)
			}
			sends0, recs0 := cost()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kv.Put(ctx, fmt.Sprintf("k%d", i%64), "v"); err != nil {
					b.Fatal(err)
				}
			}
			// The proposer runs ahead of the acceptor its quorum does not
			// need; that one's share of the work belongs to these writes too.
			for _, r := range c.replicas() {
				for r.Applied() < c.replicas()[0].Applied() {
					time.Sleep(50 * time.Microsecond)
				}
			}
			b.StopTimer()
			sends, recs := cost()
			b.ReportMetric(float64(sends-sends0)/float64(b.N), "sends/op")
			b.ReportMetric(float64(recs-recs0)/float64(b.N), "walrecs/op")
		})
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
