package smr_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
)

// newDurableCluster boots n processes durable as durableUnder makes them,
// process i's settings then edited by tweak.
func newDurableCluster(t *testing.T, n, f, e int, tweak func(i int, d *shard.Durability)) *testCluster {
	t.Helper()
	dur := durableUnder(t.TempDir(), nil)
	return newTestCluster(t, n, f, e, procOptions{dur: func(i int) *shard.Durability {
		d := dur(i)
		tweak(i, d)
		return d
	}})
}

func TestDurableRestartRecoversAppliedState(t *testing.T) {
	c := newDurableCluster(t, 3, 1, 1, func(_ int, d *shard.Durability) { d.SnapshotEvery = 4 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	kv := c.replicas()[0]
	const writes = 10
	for j := 0; j < writes; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", j), fmt.Sprintf("v%d", j)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitApplied(1, writes, 10*time.Second)

	// Clean restart of replica 1: snapshot + WAL tail must rebuild the
	// applied store without any help from the cluster.
	info := c.restart(1)
	if !info.Recovered {
		t.Fatal("restart found no durable state")
	}
	if info.TornTail {
		t.Fatal("clean shutdown left a torn WAL tail")
	}
	if info.Applied < writes {
		t.Fatalf("recovered applied=%d, want >= %d", info.Applied, writes)
	}
	for j := 0; j < writes; j++ {
		if v, ok := c.rts[1].Get(fmt.Sprintf("k%d", j)); !ok || v != fmt.Sprintf("v%d", j) {
			t.Fatalf("k%d = %q ok=%v after restart", j, v, ok)
		}
	}
	// The recovered replica keeps serving: more writes through it decide.
	if err := c.rts[1].Put(ctx, "post", "restart"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.rts[1].Get("post"); v != "restart" {
		t.Fatalf("post-restart write not applied: %q", v)
	}
}

func TestCrashFailpointUnderWorkloadRecoversAndRejoins(t *testing.T) {
	// Replica 2 crashes via a WAL failpoint mid-record while replica 0
	// serves a live workload; the survivors keep deciding (n=3, f=1), and
	// the restarted replica replays its journal and converges. The first
	// write lands before any crash with a single uncontended proposer, so
	// the recovered prefix includes fast-path decisions.
	limits := []int64{0, 0, 2500}
	c := newDurableCluster(t, 3, 1, 1, func(i int, d *shard.Durability) {
		d.SnapshotEvery = -1 // keep the whole journal: recovery must come from the WAL
		d.FailpointLimit = limits[i]
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	kv := c.replicas()[0]
	const writes = 30
	for j := 0; j < writes; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", j), fmt.Sprintf("v%d", j)); err != nil {
			t.Fatal(err)
		}
	}
	// The workload must have tripped replica 2's failpoint.
	deadline := time.Now().Add(10 * time.Second)
	for c.rts[2].Info().Applied >= c.rts[0].Info().Applied {
		if time.Now().After(deadline) {
			t.Skipf("failpoint not reached: replica 2 applied %d", c.rts[2].Info().Applied)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart in place without the failpoint: the torn record is truncated
	// and the journaled prefix replays.
	limits[2] = 0
	info := c.restart(2)
	if !info.Recovered {
		t.Fatal("restart found no durable state")
	}
	if !info.TornTail {
		t.Fatal("failpoint crash should leave a torn tail")
	}
	if info.WalRecords == 0 {
		t.Fatal("no WAL records replayed")
	}

	// The recovered replica rejoins: catchup closes the gap to the others.
	c.waitApplied(2, writes, 15*time.Second)
	for j := 0; j < writes; j++ {
		if v, ok := c.rts[2].Get(fmt.Sprintf("k%d", j)); !ok || v != fmt.Sprintf("v%d", j) {
			t.Fatalf("k%d = %q ok=%v on recovered replica", j, v, ok)
		}
	}
	// Decided logs must agree wherever both replicas still hold the slot.
	for slot := 0; slot < writes; slot++ {
		v0, ok0 := c.rts[0].Group(0).LogValue(slot)
		v2, ok2 := c.rts[2].Group(0).LogValue(slot)
		if ok0 && ok2 && v0 != v2 {
			t.Fatalf("slot %d: %v != %v after recovery", slot, v0, v2)
		}
	}
}

func TestCrashGracefulShutdownRecoversWithoutTornTail(t *testing.T) {
	// A graceful shutdown (what cmd/kv's SIGTERM handler invokes) in the
	// middle of a stream of writes must fsync and close the WAL, so the
	// restart takes the clean path, not the torn-tail one.
	c := newDurableCluster(t, 3, 1, 1, func(_ int, d *shard.Durability) { d.SnapshotEvery = -1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kv := c.replicas()[0]
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = kv.Put(ctx, fmt.Sprintf("w%d", j), "x")
		}
	}()
	// Let the workload run, then shut replica 1 down mid-stream.
	c.waitApplied(1, 3, 10*time.Second)
	before := c.rts[1].Info().Applied
	c.fab.Attach(1, nil)
	if err := c.rts[1].Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	close(stop)
	wg.Wait()

	info, err := c.boot(1)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail {
		t.Fatal("graceful shutdown took the torn-tail recovery path")
	}
	if !info.Recovered || info.Applied < before {
		t.Fatalf("recovered applied=%d, want >= %d", info.Applied, before)
	}
}

// TestCrashRestartNeverReusesCommandIDs: a crashed replica comes back handing
// out command IDs past every one of its previous life that its journal holds —
// in the snapshot, in a decision, or as its proposal in a slot still open at
// the crash. A lease grant is its ID and fields that never change, so a reused
// ID can make a new grant byte-identical to an old one.
func TestCrashRestartNeverReusesCommandIDs(t *testing.T) {
	for name, tc := range map[string]struct {
		snapshotEvery int
		open          bool
	}{
		"no snapshot":               {snapshotEvery: -1},
		"a snapshot every 4":        {snapshotEvery: 4},
		"an own proposal left open": {snapshotEvery: -1, open: true},
	} {
		t.Run(name, func(t *testing.T) {
			c := newDurableCluster(t, 3, 1, 1, func(_ int, d *shard.Durability) { d.SnapshotEvery = tc.snapshotEvery })
			r := c.rts[0].Group(0)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for j := 0; j < 10; j++ {
				if err := r.Put(ctx, fmt.Sprintf("k%d", j), "v"); err != nil {
					t.Fatal(err)
				}
			}
			proposed := make(chan error, 1)
			if tc.open {
				// No quorum: the proposal stays open, and journaled.
				c.fab.SetFault(func(_, _ consensus.ProcessID) transport.FaultVerdict { return transport.FaultVerdict{Drop: true} })
				go func() {
					_, err := r.Execute(ctx, smr.Command{Op: smr.OpPut, Key: "open", Val: "v"})
					proposed <- err
				}()
				for deadline := time.Now().Add(5 * time.Second); r.Info().OpenSlots == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the proposal never opened a slot")
					}
				}
				r.SyncIO()
			}
			used := r.Seq()
			c.fab.Attach(0, nil)
			c.rts[0].Kill()
			if tc.open {
				if err := <-proposed; !errors.Is(err, smr.ErrClosed) {
					t.Fatalf("the open proposal returned %v at the crash, want ErrClosed", err)
				}
			}
			if _, err := c.boot(0); err != nil {
				t.Fatal(err)
			}
			if got := c.rts[0].Group(0).Seq(); got < used {
				t.Fatalf("restarted at sequence %d after handing out %d: its next IDs were used before", got, used)
			}
		})
	}
}

// captureTr records outbound messages so a test can observe what a
// process (without a live mesh) says to its peers, group envelope peeled.
type captureTr struct {
	self consensus.ProcessID

	mu   sync.Mutex
	sent []struct {
		to  consensus.ProcessID
		msg consensus.Message
	}
}

func (c *captureTr) Self() consensus.ProcessID { return c.self }
func (c *captureTr) Stats() transport.Stats    { return transport.Stats{} }
func (c *captureTr) Close() error              { return nil }
func (c *captureTr) Send(to consensus.ProcessID, msg consensus.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, struct {
		to  consensus.ProcessID
		msg consensus.Message
	}{to, inner(msg)})
	return nil
}

// oneBs decodes the captured slot-wrapped 1B replies for a slot.
func (c *captureTr) oneBs(t *testing.T, slot int) []core.OneB {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.OneB
	for _, s := range c.sent {
		sm, ok := s.msg.(*smr.SlotMessage)
		if !ok || sm.Slot != slot || sm.InnerKind != core.KindOneB {
			continue
		}
		var b core.OneB
		if err := b.DecodeBody(sm.InnerBody); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// slotMsg wraps an inner core message for delivery via Replica.Handle.
func slotMsg(t *testing.T, slot int, inner consensus.Message) *smr.SlotMessage {
	t.Helper()
	return &smr.SlotMessage{Slot: slot, InnerKind: inner.Kind(), InnerBody: inner.AppendBody(nil)}
}

// openIsolated opens process id of a 3-process cluster over dir, bound to a
// capture transport instead of a fabric: it can only use what dir holds,
// and the test reads what it tries to say. Not started.
func openIsolated(t testing.TB, id consensus.ProcessID, dir string, leases *smr.LeaseOptions) (*shard.Runtime, *captureTr) {
	t.Helper()
	opts := shard.Options{
		Groups: 1,
		Config: consensus.Config{ID: id, N: 3, F: 1, E: 1, Delta: 10},
		Tick:   time.Millisecond,
		Leases: leases,
	}
	if dir != "" {
		opts.Durability = &shard.Durability{Dir: dir, Policy: wal.SyncAlways}
	}
	rt, err := shard.New(opts)
	if err != nil {
		t.Fatalf("open process %d on %q: %v", id, dir, err)
	}
	t.Cleanup(func() { rt.Close() })
	tr := &captureTr{self: id}
	rt.BindTransport(tr)
	return rt, tr
}

func TestDurablePromiseSurvivesRestart(t *testing.T) {
	// The paper's recovery rule assumes a recovering acceptor still knows
	// the ballots it joined. Join ballot 5, crash without a clean close,
	// restart, and check the replica refuses to join the lower ballot 3 —
	// an amnesiac replica would.
	dir := t.TempDir()
	mk := func() (*shard.Runtime, *smr.Replica, *captureTr, smr.RecoveryInfo) {
		rt, tr := openIsolated(t, 2, dir, nil)
		rt.Start()
		recs, _ := rt.Recovery()
		return rt, rt.Group(0), tr, recs[0]
	}

	rt1, r1, tr1, _ := mk()
	r1.Handle(1, slotMsg(t, 0, &core.OneA{Ballot: 5}))
	r1.SyncIO() // sends are pipelined behind Handle; drain before inspecting
	replies := tr1.oneBs(t, 0)
	if len(replies) != 1 || replies[0].Ballot != 5 {
		t.Fatalf("expected one 1B(5), got %+v", replies)
	}
	// Crash (SyncAlways already made the join durable). The restarted
	// replica must still hold the promise.
	rt1.Kill()
	_, r2, tr2, info := mk()
	if !info.Recovered || info.OpenSlots != 1 {
		t.Fatalf("recovery info = %+v, want one restored open slot", info)
	}
	r2.Handle(0, slotMsg(t, 0, &core.OneA{Ballot: 3}))
	r2.SyncIO()
	for _, b := range tr2.oneBs(t, 0) {
		if b.Ballot == 3 {
			t.Fatal("recovered replica joined a ballot below its promise")
		}
	}
	// The promise itself is still answered: a higher ballot gets a 1B.
	r2.Handle(1, slotMsg(t, 0, &core.OneA{Ballot: 9}))
	r2.SyncIO()
	found := false
	for _, b := range tr2.oneBs(t, 0) {
		if b.Ballot == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered replica no longer answers higher ballots")
	}
}

func TestCatchupCarriesDecidedTailForOpenSlots(t *testing.T) {
	// A snapshot/catchup reply must carry decided values for slots at or
	// above the sender's applied index, so receivers close decide gaps
	// they missed (the decided value of a still-open slot used to be
	// dropped on the floor).
	rt, tr := openIsolated(t, 0, "", nil)
	r := rt.Group(0)

	cmd := smr.Command{ID: "p9-1", Op: smr.OpPut, Key: "gap", Val: "filled"}
	v, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r.Handle(1, &smr.CatchupReply{
		Store:   map[string]string{},
		Decided: map[int]consensus.Value{2: v},
	})
	if got, ok := r.LogValue(2); !ok || got != v {
		t.Fatalf("decided tail not adopted: %v ok=%v", got, ok)
	}
	// The adopted decision must be re-exported to the next straggler.
	r.Handle(2, &smr.CatchupRequest{From: -1})
	r.SyncIO()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.sent {
		if m, ok := s.msg.(*smr.CatchupReply); ok && s.to == 2 {
			if got, ok := m.Decided[2]; !ok || got != v {
				t.Fatalf("catch-up reply lost the decided tail: %+v", m.Decided)
			}
			return
		}
	}
	t.Fatal("no catch-up reply sent to the straggler")
}

func TestCatchupHealsDecideGapsUnderDrops(t *testing.T) {
	// Replica 2 loses a third of everything sent to it, decides included
	// (0 and 1 are a fast quorum without it, and hold what it gossips it
	// still misses); the periodic status gossip plus the log suffix in
	// CatchupReply must still converge every replica onto the full log.
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	c.fab.SetFault(func(_, to consensus.ProcessID) transport.FaultVerdict {
		mu.Lock()
		defer mu.Unlock()
		return transport.FaultVerdict{Drop: to == 2 && rng.Intn(3) == 0}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := replicas[0]
	const writes = 25
	for j := 0; j < writes; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("d%d", j), "x"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for i, r := range replicas {
		for r.Applied() < writes {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at %d/%d under drops", i, r.Applied(), writes)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestDurableInfoReportsWalAndSnapshotState(t *testing.T) {
	c := newDurableCluster(t, 3, 1, 1, func(_ int, d *shard.Durability) { d.SnapshotEvery = 5 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for j := 0; j < 12; j++ {
		if err := c.rts[0].Put(ctx, fmt.Sprintf("i%d", j), "x"); err != nil {
			t.Fatal(err)
		}
	}
	info := c.rts[0].Group(0).Info()
	if !info.Durable {
		t.Fatal("Info does not report durability")
	}
	if st, ok := c.rts[0].WalStats(); info.Applied < 12 || !ok || st.Segments < 1 || st.Bytes <= 0 {
		t.Fatalf("implausible info: %+v, WAL %+v", info, st)
	}
	if info.SnapshotIndex == 0 {
		t.Fatalf("snapshots (every 5 commands) never taken: %+v", info)
	}
	if got := c.rts[0].InfoLine(); !strings.Contains(got, "wal_segments=") {
		t.Fatalf("INFO line lacks the WAL state: %q", got)
	}
}

// TestEnableDurabilityTwiceFails: durability is a NewReplica option, so a
// replica is made durable once, at construction, or not at all. What is left
// to refuse is a group the scheduler keeps no truncation floor for.
func TestEnableDurabilityTwiceFails(t *testing.T) {
	// The test is the group's owner here: its scheduler, its WAL.
	dir := t.TempDir()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	io := smr.NewIOScheduler(w, 1)
	defer io.Close()
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	open := func(d smr.DurabilityOptions) (*smr.Replica, error) {
		r, _, err := smr.NewReplica(cfg, time.Millisecond, io, smr.FixedLeaders{}, nil, smr.ReplicaOptions{Durability: &d})
		return r, err
	}
	if r, err := open(smr.DurabilityOptions{Group: 1}); err == nil {
		r.Close()
		t.Fatal("group 1 accepted on a one-group scheduler")
	}
	r, err := open(smr.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Info().Durable {
		t.Fatal("a replica built with durability does not report it")
	}
}

// TestFireAfterCloseIsInert: a replica's timer runs its callback on a
// goroutine of its own, which Close does not wait for, so a fire may land
// after Close has returned. By then the log is halted, and the fire journals
// nothing, queues nothing on the scheduler and sends nothing.
func TestFireAfterCloseIsInert(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	io := smr.NewIOScheduler(w, 1)
	defer io.Close()
	tr := &captureTr{self: 0}
	sent := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.sent)
	}
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	r, _, err := smr.NewReplica(cfg, time.Millisecond, io, smr.FixedLeaders{}, tr, smr.ReplicaOptions{Durability: &smr.DurabilityOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	// No peer answers: the write stays open, its slot holding a deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Put(ctx, "k", "v"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put with no quorum = %v, want the context's deadline", err)
	}
	r.Close()
	walNext, sends := w.Stats().NextIndex, sent()
	if walNext <= 1 || sends == 0 {
		t.Fatalf("before Close the replica journaled up to %d and sent %d: the write never left", walNext, sends)
	}

	// Hold the consumer in a post, so that whatever the fire queued stays
	// queued to be counted.
	running, release := make(chan struct{}), make(chan struct{})
	io.Post(func() { close(running); <-release })
	<-running
	r.Fire()
	queued := io.Queued()
	close(release)
	if queued != 0 {
		t.Errorf("a fire after Close queued %d entries", queued)
	}
	if got := w.Stats().NextIndex; got != walNext {
		t.Errorf("a fire after Close journaled: WAL index %d, was %d", got, walNext)
	}
	if got := sent(); got != sends {
		t.Errorf("a fire after Close sent %d messages", got-sends)
	}
}

func TestPoisonedReplicaRejectsWork(t *testing.T) {
	// After a journaling failure nothing may become externally visible, so
	// the replica refuses work; clients get ErrClosed, not silent
	// un-journaled progress. Its process still holds the resources, and
	// closing it must still give them back: the listener, and a data dir
	// that reopens.
	dir := t.TempDir()
	open := func(failpoint int64) *shard.Runtime {
		rt, err := shard.New(shard.Options{
			Groups:     1,
			Config:     consensus.Config{ID: 0, N: 1, F: 0, E: 0, Delta: 10},
			Tick:       time.Millisecond,
			Durability: &shard.Durability{Dir: dir, FailpointLimit: failpoint},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Close() })
		return rt
	}
	// A tiny failpoint trips on the very first journaled record.
	rt := open(20)
	codec := consensus.NewCodec()
	shard.RegisterMessages(codec)
	tr, err := transport.NewTCP(0, map[consensus.ProcessID]string{0: "127.0.0.1:0"}, codec, rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.Addr()
	rt.BindTransport(tr)
	rt.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = rt.Put(ctx, "k", "v")
	if err == nil {
		t.Fatal("write succeeded past a journaling failure")
	}
	if !errors.Is(err, smr.ErrClosed) && ctx.Err() == nil {
		t.Fatalf("unexpected error: %v", err)
	}

	if err := rt.Close(); err != nil {
		t.Fatalf("close after poisoning: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("Close left the poisoned process's listener open: %v", err)
	}
	ln.Close()
	rt2 := open(0)
	rt2.Start()
	if err := rt2.Put(ctx, "k", "v"); err != nil {
		t.Fatalf("write on the reopened data dir: %v", err)
	}
}

// TestTeardownReleasesBlockedCallers blocks one caller in every way a
// replica can hold one — Execute, WaitApplied, and batched Submits and
// ReadBarriers (riders of the chunk in flight and of the queue behind it) —
// on a process that can reach no quorum, then stops it each of the three ways.
// Every caller must return ErrClosed, none may hang, and the Close that
// follows must find nothing left to close a second time.
func TestTeardownReleasesBlockedCallers(t *testing.T) {
	stops := map[string]func(t *testing.T, rt *shard.Runtime){
		"close": func(t *testing.T, rt *shard.Runtime) { rt.Close() },
		"kill":  func(t *testing.T, rt *shard.Runtime) { rt.Kill() },
		"poison": func(t *testing.T, rt *shard.Runtime) {
			// One record past the WAL failpoint.
			fat := smr.Command{Op: smr.OpPut, Key: "fat", Val: strings.Repeat("x", 1<<15)}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := rt.Group(0).Execute(ctx, fat); !errors.Is(err, smr.ErrClosed) {
				t.Errorf("poisoning write: %v, want ErrClosed", err)
			}
		},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			// Every link is cut: nothing proposed here decides.
			c := newDurableCluster(t, 3, 1, 1, func(_ int, d *shard.Durability) { d.FailpointLimit = 1 << 14 })
			c.fab.SetFault(func(_, _ consensus.ProcessID) transport.FaultVerdict {
				return transport.FaultVerdict{Drop: true}
			})
			rt := c.rts[0]
			r := rt.Group(0)

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			put := func(key string) smr.Command { return smr.Command{Op: smr.OpPut, Key: key, Val: "v"} }
			calls := map[string]func() error{
				"Execute":               func() error { _, err := r.Execute(ctx, put("e")); return err },
				"WaitApplied":           func() error { return r.WaitApplied(ctx, 1000) },
				"ReadBarrier in flight": func() error { return r.ReadBarrier(ctx) },
				"ReadBarrier queued":    func() error { return r.ReadBarrier(ctx) },
				"Submit queued":         func() error { return r.Submit(ctx, put("s")) },
			}
			type result struct {
				call string
				err  error
			}
			results := make(chan result, len(calls))
			launch := func(call string) { go func() { results <- result{call, calls[call]()} }() }
			waitOpenSlots := func(want int) {
				for deadline := time.Now().Add(10 * time.Second); r.Info().OpenSlots < want; {
					if time.Now().After(deadline) {
						t.Fatalf("only %d callers reached a slot", r.Info().OpenSlots)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// The idle batcher launches the first barrier as a chunk of one,
			// which never decides: every later rider queues behind it.
			const first = "ReadBarrier in flight"
			launch(first)
			waitOpenSlots(1)
			for call := range calls {
				if call != first {
					launch(call)
				}
			}
			waitOpenSlots(2) // Execute's

			stop(t, rt)
			for range calls {
				select {
				case res := <-results:
					if !errors.Is(res.err, smr.ErrClosed) {
						t.Errorf("%s returned %v, want ErrClosed", res.call, res.err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a blocked caller was never released")
				}
			}
			if err := rt.Close(); err != nil {
				t.Errorf("close after %s: %v", name, err)
			}
		})
	}
}
