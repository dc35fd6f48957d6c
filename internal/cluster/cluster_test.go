package cluster_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/omega"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wan"
)

// TestKillRestartReconverges crash-kills a process mid-stream on each
// fabric, keeps writing through the survivors' server, reboots the victim
// from its data directory behind the same endpoint, and requires the
// cluster to reconverge on every acknowledged key.
func TestKillRestartReconverges(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		tcp := tcp
		t.Run(fmt.Sprintf("tcp=%t", tcp), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{
				N: 3, F: 1, E: 1, Groups: 2, TCP: tcp,
				Dir: t.TempDir(), Servers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sc, err := smr.NewSessionClient(c.Addrs()[:1], smr.SessionOptions{Timeout: 10 * time.Second, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()

			var keys []string
			put := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					k := fmt.Sprintf("k%d", i)
					if err := sc.Put(k, "v"+k); err != nil {
						t.Fatalf("put %s: %v", k, err)
					}
					keys = append(keys, k)
				}
			}
			put(0, 8)
			c.Kill(2)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			if err := c.Runtime(2).Put(ctx, "dead", "x"); err == nil {
				t.Fatal("killed process accepted a write")
			}
			cancel()
			put(8, 16)
			if err := c.Restart(2); err != nil {
				t.Fatal(err)
			}
			recs, _ := c.Runtime(2).Recovery()
			recovered := false
			for _, r := range recs {
				recovered = recovered || r.Recovered
			}
			if !recovered {
				t.Fatal("restarted process recovered nothing from its data directory")
			}
			put(16, 20)
			if err := c.WaitConverged(keys, 20*time.Second); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if v, ok := c.Runtime(2).Get(k); !ok || v != "v"+k {
					t.Fatalf("restarted process has %s=%q,%t", k, v, ok)
				}
			}
		})
	}
}

// TestCrashRecoversBatchedWrites crashes every process after a burst of
// concurrent writes that the batcher provably grouped into OpBatch slots,
// and reboots them all: recovery has nothing but the shared WALs, so every
// acknowledged write must come back out of a journaled batch, and the
// rebooted cluster must keep serving batches on top of them. The crash
// itself lands on a proposer with at least two chunks in consensus at once
// (the nearest peer is a 30 ms round trip away, the kill comes sooner), and recovery
// must bring each of those back whole or not at all.
func TestCrashRecoversBatchedWrites(t *testing.T) {
	const (
		n, writers, rounds = 3, 8, 5
		rtt                = 30 * time.Millisecond
	)
	topo, scale := spread(t, n, 1, rtt)
	c, err := cluster.New(cluster.Options{N: n, F: 1, E: 1, Dir: t.TempDir(), SnapshotEvery: -1, Topology: topo, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	burst := func(tag string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := c.Runtime(0).Put(ctx, fmt.Sprintf("%s-%d-%d", tag, w, r), tag); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s burst: %v", tag, err)
		}
	}
	burst("pre")
	before := c.Runtime(0).Group(0).BatchStats()
	if before.Cmds <= before.Batches || before.Depth < 2 {
		t.Fatalf("%d writers over a %v round trip: %+v, want batches formed and depth >= 2", writers, rtt, before)
	}

	// The burst the crash cuts short: more writers than one chunk holds,
	// killed before any chunk can have heard from a peer.
	const mid = 64 + writers
	midKey := func(w int) string { return fmt.Sprintf("mid-%d", w) }
	acked := make(chan string, mid)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < mid; w++ {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if err := c.Runtime(0).Put(ctx, k, "mid"); err == nil {
				acked <- k
			}
		}(midKey(w))
	}
	for c.Runtime(0).Group(0).BatchStats().Batches < before.Batches+2 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d concurrent writers launched fewer than two chunks: %+v", mid, c.Runtime(0).Group(0).BatchStats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.Kill(0)
	took := time.Since(start)
	if took >= rtt {
		t.Fatalf("the kill came %v into the burst, a round trip is %v: the chunks may no longer have been in flight", took, rtt)
	}
	launched := c.Runtime(0).Group(0).BatchStats().Batches - before.Batches
	for i := 1; i < n; i++ {
		c.Kill(i)
	}
	wg.Wait()
	close(acked)

	// p2 stays down until the log has been read: a peer nobody has heard from
	// pins the decided tail, and the recovered chunks are looked up in it.
	for i := 0; i < n-1; i++ {
		if err := c.Restart(i); err != nil {
			t.Fatal(err)
		}
	}
	burst("post")
	for _, tag := range []string{"pre", "post"} {
		for w := 0; w < writers; w++ {
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("%s-%d-%d", tag, w, r)
				if v, ok, err := c.Runtime(0).GetLinearizable(ctx, k); err != nil || !ok || v != tag {
					t.Fatalf("%s = %q,%t,%v after the crash", k, v, ok, err)
				}
			}
		}
	}

	// Whole chunks or nothing: a write of the cut burst is there exactly
	// when the log carries the command it rode in, with all its riders.
	present := map[string]bool{}
	for w := 0; w < mid; w++ {
		// Local reads: the linearizable ones above were the barrier.
		_, present[midKey(w)] = c.Runtime(0).Get(midKey(w))
	}
	for k := range acked {
		if !present[k] {
			t.Fatalf("acknowledged write %s lost in the crash", k)
		}
	}
	logged, recovered := map[string]bool{}, 0
	g := c.Runtime(0).Group(0)
	for slot := 0; slot < g.Applied(); slot++ {
		v, ok := g.LogValue(slot)
		if !ok {
			continue // applied before the crash: the reboot retired it
		}
		cmd, err := smr.DecodeCommand(v)
		if err != nil {
			t.Fatal(err)
		}
		subs := cmd.Subs
		if cmd.Op != smr.OpBatch {
			subs = []smr.Command{cmd}
		}
		if !strings.HasPrefix(subs[0].Key, "mid-") {
			continue
		}
		recovered++
		for _, sub := range subs {
			if !present[sub.Key] {
				t.Fatalf("slot %d recovered %s, but %s of the same chunk is missing", slot, cmd.ID, sub.Key)
			}
			logged[sub.Key] = true
		}
	}
	for k, ok := range present {
		if ok && !logged[k] {
			t.Fatalf("%s is in the store but in no recovered chunk", k)
		}
	}
	t.Logf("killed %v into the burst with %d chunks in flight; %d came back whole (%d of %d writes)", took, launched, recovered, len(logged), mid)
	if err := c.Restart(n - 1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged([]string{midKey(0), "post-0-0"}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// spread is spread7's first n regions with delays scaled so that the fast
// quorum (n−e processes) of process 0 closes in about rtt.
func spread(t *testing.T, n, e int, rtt time.Duration) (topo wan.Topology, scale float64) {
	t.Helper()
	full, err := wan.Preset("spread7")
	if err != nil {
		t.Fatal(err)
	}
	topo, err = full.Prefix(n)
	if err != nil {
		t.Fatal(err)
	}
	floor := time.Duration(topo.QuorumRTT(0, n-e)) * time.Millisecond
	return topo, float64(rtt) / float64(floor)
}

// TestPipelinedBatchesOverDistance is the batcher's reason to overlap
// chunks: with the fast quorum 20 ms away and fsyncs under a millisecond
// long, a proposer offered four chunks' worth of writers at once commits
// them in little over one round trip, where one chunk per round trip needs
// four. The chunks must still take slots in the order they were launched.
// A lease-less GetLinearizable is a rider like any other: a burst of reads
// overlaps its chunks under the same bound, where a barrier that ran one
// round at a time needed a round trip per round. cold is the same burst at
// a proposer that has measured nothing yet; closed32 is a closed loop of a
// cohort, put-wan's load. It runs first: right before cold under the race
// detector it made about one cold burst in ten take all of its first 64
// writers into its first chunk, which cold counts as not overlapping.
func TestPipelinedBatchesOverDistance(t *testing.T) {
	t.Run("closed32", func(t *testing.T) { closedLoopOverDistance(t, false) })
	t.Run("closed32-late", func(t *testing.T) { closedLoopOverDistance(t, true) })
	for _, tc := range []struct {
		name string
		op   func(ctx context.Context, rt *shard.Runtime, k string) error
		// writes: op leaves k = "v"+k in the store.
		writes bool
	}{
		{"Put", func(ctx context.Context, rt *shard.Runtime, k string) error { return rt.Put(ctx, k, "v"+k) }, true},
		{"GetLinearizable", func(ctx context.Context, rt *shard.Runtime, _ string) error {
			if v, ok, err := rt.GetLinearizable(ctx, "warm"); err != nil || !ok || v != "up" {
				return fmt.Errorf("GetLinearizable(warm) = %q,%t,%v", v, ok, err)
			}
			return nil
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) { pipelinedBurstOverDistance(t, tc.op, tc.writes) })
	}
	t.Run("cold", coldBurstOverDistance)
}

// TestPipelinedBatchesOverDistance's cluster has distanceN processes, and a
// burst offers p0 distanceWriters calls at once: four chunks' worth.
const distanceN, distanceWriters = 5, 256

// distanceCluster boots TestPipelinedBatchesOverDistance's cluster: durable,
// p0's fast quorum about rtt away, the round trip it returns. p0, the one
// proposer, hears no applied-index gossip: nobody tells it that its peers
// caught up, so its log keeps every slot for convergedInLaunchOrder.
func distanceCluster(t *testing.T, rtt time.Duration) (*cluster.Cluster, *shard.Runtime, time.Duration) {
	t.Helper()
	if raceDetector {
		// Instrumented, and beside the other packages' tests on the same
		// cores, the local stage of a commit runs to milliseconds: keep it
		// the small part of a commit that it is uninstrumented.
		rtt *= 4
	}
	topo, scale := spread(t, distanceN, 2, rtt)
	c, err := cluster.New(cluster.Options{N: distanceN, F: 2, E: 2, Dir: t.TempDir(), Topology: topo, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	rt := c.Runtime(0)
	h := rt.Handler()
	c.Fabric().Attach(0, func(from consensus.ProcessID, msg consensus.Message) {
		if _, gossip := msg.(*shard.Status); !gossip {
			h(from, msg)
		}
	})
	return c, rt, rtt
}

// coldBurstOverDistance offers the burst to a p0 that has committed nothing:
// it assumes distance, so its first chunk (of one writer) is still in
// consensus when the rest of the burst is in flight behind it in full
// chunks. Counted when the first writer returns: at a proposer that waited
// for its first commit sample that is one chunk launched and none
// overlapped, and the burst takes two round trips.
func coldBurstOverDistance(t *testing.T) {
	c, rt, rtt := distanceCluster(t, 20*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		first   sync.Once
		atFirst smr.BatchStats
		keys    []string
	)
	errs := make(chan error, distanceWriters)
	start := time.Now()
	for w := 0; w < distanceWriters; w++ {
		k := fmt.Sprintf("cold-k%d", w)
		keys = append(keys, k)
		go func() {
			err := rt.Put(ctx, k, "v"+k)
			first.Do(func() { atFirst = rt.Group(0).BatchStats() })
			errs <- err
		}()
	}
	for w := 0; w < distanceWriters; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	st := rt.Group(0).BatchStats()
	t.Logf("cold burst: %d writes acknowledged in %v (%.2f round trips); when the first returned: %+v; at the end: %+v",
		distanceWriters, took, float64(took)/float64(rtt), atFirst, st)
	if atFirst.Batches < 5 || atFirst.Overlapped < 4 {
		t.Errorf("when the first writer returned: %+v, want >= 5 chunks launched and >= 4 overlapped", atFirst)
	}
	if st.Batches > 8 {
		t.Errorf("the burst took %d chunks, want <= 8 (a chunk of one, then full ones): %+v", st.Batches, st)
	}
	if limit := 3 * rtt / 2; took > limit && !raceDetector {
		t.Errorf("the cold burst took %v, want under %v", took, limit)
	}
	convergedInLaunchOrder(t, c, keys)
}

// closedLoopOverDistance is put-wan's load in process: 32 callers in a
// closed loop at p0, whose fast quorum is 50 ms away, so 1/32 of a commit is
// more than the 1 ms beat. There a released cohort is waited for, not timed:
// after a warm-up, at least 80 % of the chunks carry all 32 callers, and a
// chunk is held back for company under 0.5 ms on average (outside the race
// detector), where a blind beat holds every cohort's chunk for a millisecond
// and more. With late, one caller comes back once two stretches (1/16 of a
// round trip) after its cohort was released, so the cohort launches without
// it: the split must heal within the next warm-up, not stay for good.
func closedLoopOverDistance(t *testing.T, late bool) {
	const callers, warmup, chunks = 32, 10, 20
	_, rt, rtt := distanceCluster(t, 50*time.Millisecond)
	g := rt.Group(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if late && w == 0 && i == warmup {
					time.Sleep(rtt / 16)
				}
				if err := rt.Put(ctx, fmt.Sprintf("c%d", w), fmt.Sprint(i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stopCallers := func() { stop.Store(true); wg.Wait() }
	defer stopCallers()
	// waitApplied polls until p0 has applied n slots, or a caller failed.
	waitApplied := func(n int) {
		t.Helper()
		for g.Applied() < n {
			select {
			case err := <-errs:
				t.Fatal(err)
			case <-ctx.Done():
				t.Fatalf("%d of %d slots applied: %v", g.Applied(), n, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	if late {
		waitApplied(3 * warmup)
	} else {
		waitApplied(warmup)
	}
	from, before := g.Applied(), g.BatchStats()
	waitApplied(from + chunks)
	to, after := g.Applied(), g.BatchStats()
	stopCallers()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	full := 0
	for slot := from; slot < to; slot++ {
		v, ok := g.LogValue(slot)
		if !ok {
			t.Fatalf("slot %d missing from the log", slot)
		}
		cmd, err := smr.DecodeCommand(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmd.Subs) == callers {
			full++
		}
	}
	launched := after.Batches - before.Batches
	held := (after.Held - before.Held) / time.Duration(launched)
	t.Logf("%d callers, %v round trip: %d of %d chunks carried all of them; %d chunks launched, held %v each on average",
		callers, rtt, full, to-from, launched, held)
	if 5*full < 4*(to-from) {
		t.Errorf("%d of %d chunks carried all %d callers, want >= 80 %%", full, to-from, callers)
	}
	// Instrumented, the riders' own return takes about as long as the bound.
	if held >= 500*time.Microsecond && !raceDetector {
		t.Errorf("a chunk was held back %v on average, want < 0.5 ms: a released cohort waited out a blind beat", held)
	}
}

func pipelinedBurstOverDistance(t *testing.T, op func(ctx context.Context, rt *shard.Runtime, k string) error, writes bool) {
	const writers = distanceWriters
	c, rt, rtt := distanceCluster(t, 20*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A lone writer first, so the depth comes from measured commits (the cold
	// subtest is the burst without it).
	for i := 0; i < 3; i++ {
		if err := rt.Put(ctx, "warm", "up"); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Group(0).BatchStats(); st.Depth < 2 || st.Overlapped != 0 {
		t.Fatalf("after a lone writer over a %v round trip: %+v, want depth >= 2 and nothing overlapped", rtt, st)
	}

	// Up to three bursts, each bounded by the depth the batcher reports: the
	// depth is measured, and a loaded host inflates the local stage it is
	// measured against — at depth 3 four chunks need two rounds, not one.
	// The wall clock only has to come in under one chunk per round trip
	// once; that chunks overlapped and kept their order is asserted below.
	var keys []string
	errs := make(chan error, writers)
	var took, limit time.Duration
	for burst := 0; burst < 3; burst++ {
		depth := rt.Group(0).BatchStats().Depth
		start := time.Now()
		for w := 0; w < writers; w++ {
			k := fmt.Sprintf("b%d-k%d", burst, w)
			if writes {
				keys = append(keys, k)
			}
			go func() { errs <- op(ctx, rt, k) }()
		}
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		took = time.Since(start)
		if d := rt.Group(0).BatchStats().Depth; d < depth {
			depth = d
		}
		// writers/64 full chunks and the first writer's chunk of one, depth
		// at a time, plus a round trip and a half for the local stages and
		// the gather beat: 2.5 round trips at depth 5 and up, 3.5 at depth 3,
		// where one chunk per round trip takes four.
		rounds := (writers/64 + depth) / depth
		limit = time.Duration(rounds)*rtt + 3*rtt/2
		t.Logf("burst %d: %d calls acknowledged in %v (%.1f round trips) at depth %d, limit %v", burst, writers, took, float64(took)/float64(rtt), depth, limit)
		if took <= limit {
			break
		}
	}
	st := rt.Group(0).BatchStats()
	if took > limit && !raceDetector {
		t.Errorf("%d concurrent calls took %v in the best of three bursts, want under %v: %+v", writers, took, limit, st)
	}
	if st.Overlapped == 0 {
		t.Errorf("no chunk was launched while another was in flight: %+v", st)
	}
	convergedInLaunchOrder(t, c, keys)
}

// convergedInLaunchOrder waits until every process holds k = "v"+k for each
// of keys, then checks that p0's log carries a burst's worth of batches, in
// launch order.
func convergedInLaunchOrder(t *testing.T, c *cluster.Cluster, keys []string) {
	t.Helper()
	if err := c.WaitConverged(keys, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < distanceN; i++ {
		for _, k := range keys {
			if v, ok := c.Runtime(i).Get(k); !ok || v != "v"+k {
				t.Fatalf("process %d has %s=%q,%t", i, k, v, ok)
			}
		}
	}
	// Batch IDs number the launches (p0-batch-<seq>, seq rising); the log
	// must carry them in that order.
	rt := c.Runtime(0)
	last, batches := int64(-1), 0
	for slot := 0; slot < rt.Group(0).Applied(); slot++ {
		v, ok := rt.Group(0).LogValue(slot)
		if !ok {
			t.Fatalf("slot %d missing from the log", slot)
		}
		cmd, err := smr.DecodeCommand(v)
		if err != nil {
			t.Fatal(err)
		}
		if cmd.Op != smr.OpBatch {
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(cmd.ID, "p0-batch-%d", &seq); err != nil {
			t.Fatalf("slot %d: batch id %q: %v", slot, cmd.ID, err)
		}
		if seq <= last {
			t.Fatalf("slot %d carries launch %d after launch %d: chunks out of launch order", slot, seq, last)
		}
		last = seq
		batches++
	}
	if batches < distanceWriters/64 {
		t.Fatalf("%d batches in the log for a burst of %d", batches, distanceWriters)
	}
}

// TestWriteBudget counts what one committed write costs a quiet cluster, in
// messages, journal records and fsyncs — not in time. The Figure-1 fast
// path is one Propose, the votes and one Decide, and a vote that arrives
// after the fast quorum closed is answered with the decision: 3(n−1)+e slot
// messages. Every process journals two records, what it proposed or voted
// and what was decided, and n+1 of those are fsynced before something that
// depends on them leaves: the proposal, each vote, the proposer's decision
// (an acceptor's decision record waits for the next commit). Then nothing:
// a decided slot has no instance and no timer, so nobody says another word
// about it. Heartbeats and Status gossip are not slot messages.
func TestWriteBudget(t *testing.T) {
	const delta = 10 * time.Millisecond // cluster.New: Δ = 10 ticks of 1 ms
	for _, tc := range []struct{ n, f, e int }{{3, 1, 1}, {5, 2, 2}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{N: tc.n, F: tc.f, E: tc.e, Dir: t.TempDir(), SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var slotMsgs atomic.Int64
			for i := 0; i < tc.n; i++ {
				h := c.Runtime(i).Handler()
				c.Fabric().Attach(i, func(from consensus.ProcessID, msg consensus.Message) {
					if gm, ok := msg.(*shard.GroupMessage); ok && gm.InnerKind == smr.KindSlot {
						slotMsgs.Add(1)
					}
					h(from, msg)
				})
			}
			// cost is {slot messages, WAL records, fsyncs}, cluster-wide.
			cost := func() (out [3]int64) {
				out[0] = slotMsgs.Load()
				for i := 0; i < tc.n; i++ {
					st, _ := c.Runtime(i).WalStats()
					out[1] += int64(st.NextIndex)
					out[2] += int64(st.Syncs)
				}
				return out
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			write := func(k string) (spent [3]int64) {
				t.Helper()
				before := cost()
				if err := c.Runtime(0).Put(ctx, k, "v"); err != nil {
					t.Fatal(err)
				}
				if err := c.WaitConverged([]string{k}, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				time.Sleep(20 * delta)
				after := cost()
				for i := range spent {
					spent[i] = after[i] - before[i]
				}
				return spent
			}
			write("warm")
			want := [3]int64{int64(3*(tc.n-1) + tc.e), int64(2 * tc.n), int64(tc.n + 1)}
			if got := write("k"); got != want {
				timeouts := make([]uint64, tc.n) // a second ballot shows here
				for i := range timeouts {
					timeouts[i] = c.Runtime(i).Group(0).Info().Timeouts
				}
				t.Fatalf("one write and the 20Δ after it cost {messages, records, fsyncs} = %v, want %v (ballot timeouts by process: %v)", got, want, timeouts)
			}
		})
	}
}

// TestIdleBudget counts what an idle process says, whatever it hosts: between
// two of p0's heartbeats to p1, ten periods apart, p0 sends every peer ten
// heartbeats and two Status — and nothing else, at one group and at four. Ω
// and the applied-index gossip are the process's, not the groups'.
func TestIdleBudget(t *testing.T) {
	const n, first, window = 3, 3, 10
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{N: n, F: 1, E: 1, Groups: groups})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var mu sync.Mutex
			beats := 0                  // p0's heartbeats seen at p1
			sent := map[string]int{}    // what p0 sent inside the window, by kind
			done := make(chan struct{}) // closed by the heartbeat that ends it
			for i := 1; i < n; i++ {
				h := c.Runtime(i).Handler()
				c.Fabric().Attach(i, func(from consensus.ProcessID, msg consensus.Message) {
					if from == 0 {
						mu.Lock()
						if i == 1 && msg.Kind() == omega.KindHeartbeat {
							if beats++; beats == first+window {
								close(done)
							}
						}
						if beats >= first && beats < first+window {
							sent[msg.Kind()]++
						}
						mu.Unlock()
					}
					h(from, msg)
				})
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("p1 never saw the heartbeat that closes the window")
			}
			mu.Lock()
			defer mu.Unlock()
			// The other links' edges need not line up with p1's: ±(n−1).
			near := func(got, want int) bool { return got >= want-(n-1) && got <= want+(n-1) }
			if hb, st := sent[omega.KindHeartbeat], sent[shard.KindStatus]; !near(hb, window*(n-1)) || !near(st, window/5*(n-1)) || len(sent) != 2 {
				t.Fatalf("in %d periods p0 sent %v, want %d heartbeats, %d Status and nothing else",
					window, sent, window*(n-1), window/5*(n-1))
			}
		})
	}
}

// TestSilentAfterShutdown: a process's beat and its groups' timers are
// deadlines whose callbacks run on goroutines of their own, which neither
// Kill nor Close waits for. Once either has returned the process says
// nothing: for three beat periods p0 sends nothing on the fabric, though a
// write it could not commit held deadlines in every group and, in the same
// span before, p0 was sending.
func TestSilentAfterShutdown(t *testing.T) {
	const groups = 2
	period := 10 * time.Millisecond // Δ = 10 ticks of 1 ms
	for _, kill := range []bool{true, false} {
		t.Run(fmt.Sprintf("kill=%t", kill), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{N: 3, F: 1, E: 1, Groups: groups, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// p0 hears nobody, so each group's write keeps its ballot timers.
			c.Fabric().SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
				return transport.FaultVerdict{Drop: to == 0 && from != 0}
			})
			rt := c.Runtime(0)
			var wg sync.WaitGroup
			for g := 0; g < groups; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 3*period)
					defer cancel()
					_ = rt.Group(g).Put(ctx, fmt.Sprintf("k%d", g), "v") // fails: no quorum
				}()
			}
			wg.Wait()
			said := func() uint64 {
				s := c.Fabric().Transport(0).Stats()
				return s.Sends + s.Drops
			}
			before := said()
			time.Sleep(3 * period)
			if said() == before {
				t.Fatal("p0 sent nothing in three beat periods while it was up")
			}
			if kill {
				c.Kill(0)
			} else if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			after := said()
			time.Sleep(3 * period)
			if n := said() - after; n != 0 {
				t.Fatalf("p0 sent %d messages in the three beat periods after it stopped", n)
			}
		})
	}
}

// TestProcessOmegaMovesEveryGroup: Ω is one fact per process, so when p0
// dies every group's leader entry and leaseholder move to p1 together, and
// every entry comes back once p0 does.
func TestProcessOmegaMovesEveryGroup(t *testing.T) {
	const groups = 4
	c, err := cluster.New(cluster.Options{
		N: 3, F: 1, E: 1, Groups: groups, Dir: t.TempDir(),
		Leases: &smr.LeaseOptions{Duration: 400 * time.Millisecond, Epsilon: 20 * time.Millisecond, AutoGrant: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// led waits until every process in procs names want for every group and
	// want holds every group's lease.
	led := func(want int, procs ...int) {
		t.Helper()
		var state string
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			ok := true
			state = ""
			for _, p := range procs {
				leaders := c.Runtime(p).GroupLeaders()
				state += fmt.Sprintf(" p%d:%v", p, leaders)
				for _, l := range leaders {
					ok = ok && int(l) == want
				}
			}
			for g := 0; g < groups; g++ {
				held := c.Runtime(want).Group(g).HoldsLease()
				state += fmt.Sprintf(" g%d:%t", g, held)
				ok = ok && held
			}
			if ok {
				return
			}
		}
		t.Fatalf("p%d does not lead and hold all %d groups:%s", want, groups, state)
	}
	led(0, 0, 1, 2)
	c.Kill(0)
	led(1, 1, 2)
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	led(0, 0, 1, 2)
}
