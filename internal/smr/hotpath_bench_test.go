package smr_test

// Micro-benchmarks for the replication hot path: command encoding and
// decoding, slot wrapping and a frame's way back in
// (slotwrap_bench_test.go), the end-to-end submit pipeline, the batcher over
// distance, the lease-less read path and the session server's replies. Run
// with
//
//	go test -bench 'CommandEncode|CommandDecode|SlotWrap|FrameDecode|ReplicaPipeline|BatcherDistance|ReadFallback|SessionFanout' -benchmem ./internal/smr/
//
// The codec benchmarks exist to keep allocs/op a CI number: an encode is its
// output, a decode the strings it keeps, and nothing else.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// BenchmarkCommandEncode measures Command → consensus.Value encoding (the
// binary form built in a pooled buffer + inline FNV-1a key), the first step
// of every client submission.
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

// BenchmarkCommandDecode measures consensus.Value → Command, what every
// replica does once per decided slot: three strings, three allocations (and
// the scratch copy of the payload once it outgrows the stack).
func BenchmarkCommandDecode(b *testing.B) {
	v, err := smr.Command{ID: "p0-42", Op: smr.OpPut, Key: "account-1234", Val: "balance=99.50"}.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smr.DecodeCommand(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode measures a fast-path vote's way in, the three unwraps
// TCP.readLoop, shard.Runtime.Handler and Replica.Handle do between them: wire form →
// shard.GroupMessage → smr.SlotMessage → core.TwoB. The wrappers' inner
// bodies are windows of the frame; what is allocated is the three messages,
// their kind strings and the vote's value.
func BenchmarkFrameDecode(b *testing.B) {
	wire, slots, inner := consensus.NewCodec(), consensus.NewCodec(), consensus.NewCodec()
	shard.RegisterMessages(wire)
	smr.RegisterMessages(slots)
	core.RegisterMessages(inner)
	val, err := smr.Command{ID: "p0-123456", Op: smr.OpPut, Key: "c0-k17", Val: "v-000000004711"}.Encode()
	if err != nil {
		b.Fatal(err)
	}
	vote := &core.TwoB{Ballot: 0, Value: val}
	slot := &smr.SlotMessage{Slot: 123456, InnerKind: vote.Kind(), InnerBody: vote.AppendBody(nil)}
	frame, _ := wire.Encode(&shard.GroupMessage{Group: 3, InnerKind: slot.Kind(), InnerBody: slot.AppendBody(nil)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := wire.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		gm := m.(*shard.GroupMessage)
		if m, err = slots.DecodeBody(gm.InnerKind, gm.InnerBody); err != nil {
			b.Fatal(err)
		}
		sm := m.(*smr.SlotMessage)
		if m, err = inner.DecodeBody(sm.InnerKind, sm.InnerBody); err != nil || m.(*core.TwoB).Value != val {
			b.Fatalf("decoded %v, %v", m, err)
		}
	}
}

// BenchmarkReplicaPipeline measures one committed write end to end on a
// Mesh of journaling processes, each committing its log before anything
// leaves it, as the served stack does: encode, slot allocation, consensus
// round, journal records and their fsyncs, apply, waiter wakeup through the
// outbox. Besides allocs/op it reports the write
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
				d.SnapshotEvery = -1
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
			kv := c.replicas()[0]
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

// distanceOneWay is the delay distanceFixture puts on every link; farOneWay
// is one where 1/32 of a commit is more than the batcher's 1 ms gather beat.
const distanceOneWay, farOneWay = 10 * time.Millisecond, 25 * time.Millisecond

// coldDistanceFixture is three processes a round trip of twice oneWay apart
// (injected on the Mesh), none of which has committed anything.
func coldDistanceFixture(b *testing.B, oneWay time.Duration) (*testCluster, *smr.Replica, context.Context) {
	// Δ = 10 ticks must outlast the round trip, or every ballot times out.
	c := newTestCluster(b, 3, 1, 1, procOptions{tick: oneWay / 2})
	c.fab.SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Delay: oneWay}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	b.Cleanup(cancel)
	return c, c.replicas()[0], ctx
}

// distanceFixture is coldDistanceFixture warmed by a lone writer at process
// 0: the batcher's depth is measured, not configured, and those commits tell
// it how far away its quorum is.
func distanceFixture(b *testing.B, oneWay time.Duration) (*testCluster, *smr.Replica, context.Context) {
	c, kv, ctx := coldDistanceFixture(b, oneWay)
	for i := 0; i < 3; i++ {
		if err := kv.Put(ctx, "warm", "up"); err != nil {
			b.Fatal(err)
		}
	}
	return c, kv, ctx
}

// burst runs op on n goroutines at once and waits for them all.
func burst(b *testing.B, n int, op func(w int) error) {
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) { errs <- op(w) }(w)
	}
	for w := 0; w < n; w++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatcherDistance is one proposer offered more writers than a
// chunk holds, a 20 ms round trip from its peers. warm: an iteration is 256
// concurrent writes at a proposer that has measured its commits, and
// cmds/roundtrip is how many of them commit per round trip of elapsed time;
// a batcher with one chunk in consensus at a time cannot exceed its chunk
// size, 64. cold: an iteration is the first burst of 256 at a fresh fixture
// (built and torn down off the clock), and roundtrips/burst is about 1 when
// a proposer that has measured nothing overlaps its chunks, 2 when its first
// chunk has to commit before a second one goes. closed32: 32 callers in a
// closed loop a 50 ms round trip away, an iteration one chunk committed after
// a warm-up; held_us/chunk is how long the flusher held a chunk back for
// company (a released cohort is waited for, not timed: well under the 1 ms
// beat), and cmds/batch near 32 means the cohort stayed whole.
func BenchmarkBatcherDistance(b *testing.B) {
	const submitters = 256
	put := func(kv *smr.Replica, ctx context.Context) func(w int) error {
		return func(w int) error { return kv.Put(ctx, fmt.Sprintf("k%d", w), "v") }
	}
	b.Run("warm", func(b *testing.B) {
		c, kv, ctx := distanceFixture(b, distanceOneWay)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			burst(b, submitters, put(kv, ctx))
		}
		roundTrips := float64(b.Elapsed()) / float64(2*distanceOneWay)
		b.ReportMetric(float64(b.N*submitters)/roundTrips, "cmds/roundtrip")
		st := c.replicas()[0].BatchStats()
		b.ReportMetric(float64(st.Cmds)/float64(st.Batches), "cmds/batch")
	})
	b.Run("cold", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			c, kv, ctx := coldDistanceFixture(b, distanceOneWay)
			b.StartTimer()
			burst(b, submitters, put(kv, ctx))
			b.StopTimer()
			c.close()
		}
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(2*distanceOneWay), "roundtrips/burst")
	})
	b.Run("closed32", func(b *testing.B) {
		const callers, warmup = 32, 10
		c, kv, ctx := distanceFixture(b, farOneWay)
		r := c.replicas()[0]
		var stop atomic.Bool
		errs := make(chan error, callers)
		for w := 0; w < callers; w++ {
			go func() {
				for i := 0; !stop.Load(); i++ {
					if err := kv.Put(ctx, fmt.Sprintf("c%d", w), fmt.Sprint(i)); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		waitApplied := func(n int) {
			for r.Applied() < n && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
		}
		waitApplied(r.Applied() + warmup)
		before := r.BatchStats()
		b.ResetTimer()
		waitApplied(r.Applied() + b.N)
		b.StopTimer()
		after := r.BatchStats()
		stop.Store(true)
		for w := 0; w < callers; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		chunks := float64(after.Batches - before.Batches)
		b.ReportMetric(float64((after.Held-before.Held).Microseconds())/chunks, "held_us/chunk")
		b.ReportMetric(float64(after.Cmds-before.Cmds)/chunks, "cmds/batch")
	})
}

// BenchmarkReadFallback is what a GetLinearizable costs where no lease
// serves it: a barrier through consensus, then the local read.
// distance/burst256 is BenchmarkBatcherDistance's fixture with an iteration
// of 256 concurrent reads: roundtrips/burst is a shape, not a speed — a
// barrier that cannot overlap rounds pays two where one will do. loopback/cN
// is N callers in a closed loop, nine reads to one write, on durable
// processes that fsync every commit; an iteration is one operation per
// caller, so ops/s and slots/op are the figures to read, not ns/op, and
// held_us/slot is how long the flusher held each slot's chunk back for
// company: on loopback the blind gather beat, measured.
func BenchmarkReadFallback(b *testing.B) {
	b.Run("distance/burst256", func(b *testing.B) {
		c, kv, ctx := distanceFixture(b, distanceOneWay)
		r := c.replicas()[0]
		slots := r.Applied()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			burst(b, 256, func(int) error {
				_, _, err := kv.GetLinearizable(ctx, "warm")
				return err
			})
		}
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(2*distanceOneWay), "roundtrips/burst")
		b.ReportMetric(float64(r.Applied()-slots)/float64(b.N), "slots/burst")
	})
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("loopback/c%d", callers), func(b *testing.B) {
			r := newTestCluster(b, 3, 1, 1, procOptions{dur: durableUnder(b.TempDir(), nil)}).replicas()[0]
			kv := r
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			if err := kv.Put(ctx, "warm", "up"); err != nil {
				b.Fatal(err)
			}
			slots, before := r.Applied(), r.BatchStats()
			b.ResetTimer()
			burst(b, callers, func(w int) error {
				for i := 0; i < b.N; i++ {
					var err error
					if (w+i)%10 == 0 {
						err = kv.Put(ctx, fmt.Sprintf("k%d", w), "v")
					} else {
						_, _, err = kv.GetLinearizable(ctx, "warm")
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			b.StopTimer()
			ops := float64(b.N * callers)
			b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(r.Applied()-slots)/ops, "slots/op")
			held := r.BatchStats().Held - before.Held
			b.ReportMetric(float64(held.Microseconds())/float64(r.Applied()-slots), "held_us/slot")
		})
	}
}

// BenchmarkCatchup is one catch-up, request to caught up, between two
// isolated replicas: what it puts on the wire (wire-B/op, frames/op) and how
// long each side holds Replica.mu for it (send-lock-ns/op: cutting the reply;
// recv-lock-ns/op: adopting it). The sender holds 8k keys of 200 B as of slot
// 64, and 64 decided slots of 1 KiB above that. suffix-64slots is a peer that
// has the store and misses the slots; snapshot-8k one that has nothing, below
// the sender's floor. Neither journals: a durable receiver journals an
// install's snapshot as records that its later sends wait to commit.
func BenchmarkCatchup(b *testing.B) {
	base := &smr.CatchupReply{Applied: 64, Store: make(map[string]string, 8000)}
	for i := 0; i < 8000; i++ {
		base.Store[fmt.Sprintf("key-%06d", i)] = string(make([]byte, 200))
	}
	rt, tr := openIsolated(b, 0, "", nil)
	sender := rt.Group(0)
	sender.Handle(1, base)
	for n := 64; n < 128; n++ {
		v, err := smr.Command{ID: fmt.Sprintf("p1-%d", n), Op: smr.OpPut, Key: fmt.Sprintf("k%d", n), Val: string(make([]byte, 1<<10))}.Encode()
		if err != nil {
			b.Fatal(err)
		}
		sender.Handle(1, &smr.SlotMessage{Slot: n, InnerKind: core.KindDecide, InnerBody: (&core.DecideMsg{Value: v}).AppendBody(nil)})
	}
	for _, bc := range []struct {
		name      string
		from      int
		installed uint64
	}{{"suffix-64slots", 64, 1}, {"snapshot-8k", 0, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			var wire, frames int
			var sendLock, recvLock time.Duration
			for i := 0; i < b.N; i++ {
				rrt, _ := openIsolated(b, 2, "", nil)
				recv := rrt.Group(0)
				if bc.from > 0 {
					recv.Handle(1, base)
				}
				tr.mu.Lock()
				tr.sent = nil
				tr.mu.Unlock()
				start := time.Now()
				sender.Handle(2, &smr.CatchupRequest{From: bc.from})
				sendLock += time.Since(start)
				sender.SyncIO()
				tr.mu.Lock()
				replies := tr.sent
				tr.mu.Unlock()
				for _, s := range replies {
					wire += len(s.msg.AppendBody(nil))
					start = time.Now()
					recv.Handle(0, s.msg)
					recvLock += time.Since(start)
				}
				frames += len(replies)
				if info := recv.Info(); info.Applied != sender.Applied() || info.Catchup.Installed != bc.installed {
					b.Fatalf("receiver at %+v after %d frames, sender at %d applied", info, len(replies), sender.Applied())
				}
				rrt.Close()
			}
			n := float64(b.N)
			b.ReportMetric(float64(wire)/n, "wire-B/op")
			b.ReportMetric(float64(frames)/n, "frames/op")
			b.ReportMetric(float64(sendLock.Nanoseconds())/n, "send-lock-ns/op")
			b.ReportMetric(float64(recvLock.Nanoseconds())/n, "recv-lock-ns/op")
		})
	}
}

// BenchmarkSessionFanout is the session server's reply path: 2 sessions × 16
// closed-loop callers PUT over loopback to process 0 of an in-process group
// (3 processes, in memory). An iteration is one PUT per caller; us/cycle is
// its time, and writes/chunk the server's reply writes per chunk the group
// resolved. A chunk costs at most one write per connection its riders span,
// and chunks that resolve together share one, so it stays at or under 2; a
// write per rider would read as cmds/chunk.
func BenchmarkSessionFanout(b *testing.B) {
	const sessions, callers = 2, 16
	c := newTestCluster(b, 3, 1, 1, procOptions{})
	srv, err := smr.NewBackendServer(c.rts[0], "127.0.0.1:0", time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	clients := make([]*smr.SessionClient, sessions)
	for i := range clients {
		if clients[i], err = smr.NewSessionClient([]string{srv.Addr()}, smr.SessionOptions{Depth: callers}); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
		if err := clients[i].Put("warm", "up"); err != nil {
			b.Fatal(err)
		}
	}
	r := c.replicas()[0]
	before, writes := r.BatchStats(), srv.ReplyWrites()
	b.ResetTimer()
	burst(b, sessions*callers, func(w int) error {
		key := fmt.Sprintf("k%d", w)
		for i := 0; i < b.N; i++ {
			if err := clients[w%sessions].Put(key, "v"); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/cycle")
	chunks := r.BatchStats().Batches - before.Batches
	b.ReportMetric(float64(srv.ReplyWrites()-writes)/float64(chunks), "writes/chunk")
	b.ReportMetric(float64(b.N*sessions*callers)/float64(chunks), "cmds/chunk")
}
