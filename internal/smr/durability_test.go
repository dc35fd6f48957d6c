package smr_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wan"
)

// durableCluster is a mesh of durable replicas that can be crashed and
// restarted in place from their data directories.
type durableCluster struct {
	t        *testing.T
	n        int
	fab      *cluster.Fabric
	dirs     []string
	replicas []*smr.Replica
	opts     func(dir string, i int) smr.DurabilityOptions
}

func newDurableCluster(t *testing.T, n, f, e int, opts func(dir string, i int) smr.DurabilityOptions) *durableCluster {
	t.Helper()
	// Mesh endpoints attach exactly once, so restart-in-place tests swap
	// the replica behind the fabric's endpoint.
	fab, err := cluster.NewFabric(n, nil, wan.Topology{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &durableCluster{
		t:        t,
		n:        n,
		fab:      fab,
		dirs:     make([]string, n),
		replicas: make([]*smr.Replica, n),
		opts:     opts,
	}
	base := t.TempDir()
	for i := 0; i < n; i++ {
		c.dirs[i] = filepath.Join(base, fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i++ {
		if _, err := c.boot(i, f, e); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			if r != nil {
				r.Close()
			}
		}
		c.fab.Close()
	})
	return c
}

// boot builds replica i over its data dir and swaps it into the mesh.
func (c *durableCluster) boot(i, f, e int) (smr.RecoveryInfo, error) {
	cfg := consensus.Config{ID: consensus.ProcessID(i), N: c.n, F: f, E: e, Delta: 10}
	r, err := smr.NewReplica(cfg, time.Millisecond)
	if err != nil {
		return smr.RecoveryInfo{}, err
	}
	info, err := r.EnableDurability(c.opts(c.dirs[i], i))
	if err != nil {
		return smr.RecoveryInfo{}, err
	}
	r.BindTransport(c.fab.Transport(i))
	c.fab.Attach(i, r.Handle)
	c.replicas[i] = r
	r.Start()
	return info, nil
}

// restart closes (or abandons, if already poisoned) replica i and boots a
// fresh one from the same data directory.
func (c *durableCluster) restart(i, f, e int) smr.RecoveryInfo {
	c.t.Helper()
	c.fab.Attach(i, nil)
	if c.replicas[i] != nil {
		c.replicas[i].Close()
	}
	info, err := c.boot(i, f, e)
	if err != nil {
		c.t.Fatal(err)
	}
	return info
}

// waitApplied waits until replica i has applied at least want slots.
func (c *durableCluster) waitApplied(i, want int, d time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(d)
	for c.replicas[i].Applied() < want {
		if time.Now().After(deadline) {
			c.t.Fatalf("replica %d stuck at %d/%d applied", i, c.replicas[i].Applied(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDurableRestartRecoversAppliedState(t *testing.T) {
	c := newDurableCluster(t, 3, 1, 1, func(dir string, i int) smr.DurabilityOptions {
		return smr.DurabilityOptions{Dir: dir, Policy: wal.SyncNever, SnapshotEvery: 4}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	kv := smr.NewKV(c.replicas[0])
	const writes = 10
	for j := 0; j < writes; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", j), fmt.Sprintf("v%d", j)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitApplied(1, writes, 10*time.Second)

	// Clean restart of replica 1: snapshot + WAL tail must rebuild the
	// applied store without any help from the cluster.
	info := c.restart(1, 1, 1)
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
		if v, ok := c.replicas[1].Get(fmt.Sprintf("k%d", j)); !ok || v != fmt.Sprintf("v%d", j) {
			t.Fatalf("k%d = %q ok=%v after restart", j, v, ok)
		}
	}
	// The recovered replica keeps serving: more writes through it decide.
	kv1 := smr.NewKV(c.replicas[1])
	if err := kv1.Put(ctx, "post", "restart"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.replicas[1].Get("post"); v != "restart" {
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
	c := newDurableCluster(t, 3, 1, 1, func(dir string, i int) smr.DurabilityOptions {
		return smr.DurabilityOptions{
			Dir:            dir,
			Policy:         wal.SyncAlways,
			SnapshotEvery:  -1, // keep the whole journal: recovery must come from the WAL
			FailpointLimit: limits[i],
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	kv := smr.NewKV(c.replicas[0])
	const writes = 30
	for j := 0; j < writes; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", j), fmt.Sprintf("v%d", j)); err != nil {
			t.Fatal(err)
		}
	}
	// The workload must have tripped replica 2's failpoint.
	deadline := time.Now().Add(10 * time.Second)
	for c.replicas[2].Info().Applied >= c.replicas[0].Applied() {
		if time.Now().After(deadline) {
			t.Skipf("failpoint not reached: replica 2 applied %d", c.replicas[2].Info().Applied)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart in place without the failpoint: the torn record is truncated
	// and the journaled prefix replays.
	limits[2] = 0
	info := c.restart(2, 1, 1)
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
		if v, ok := c.replicas[2].Get(fmt.Sprintf("k%d", j)); !ok || v != fmt.Sprintf("v%d", j) {
			t.Fatalf("k%d = %q ok=%v on recovered replica", j, v, ok)
		}
	}
	// Decided logs must agree wherever both replicas still hold the slot.
	for slot := 0; slot < writes; slot++ {
		v0, ok0 := c.replicas[0].LogValue(slot)
		v2, ok2 := c.replicas[2].LogValue(slot)
		if ok0 && ok2 && v0 != v2 {
			t.Fatalf("slot %d: %v != %v after recovery", slot, v0, v2)
		}
	}
}

func TestCrashGracefulShutdownRecoversWithoutTornTail(t *testing.T) {
	// A graceful shutdown (what the SIGTERM handlers in cmd/kv and
	// cmd/twostep invoke) must fsync and close the WAL even under
	// SyncNever, so the restart takes the clean path, not the torn-tail
	// one.
	c := newDurableCluster(t, 3, 1, 1, func(dir string, i int) smr.DurabilityOptions {
		return smr.DurabilityOptions{Dir: dir, Policy: wal.SyncNever, SnapshotEvery: -1}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kv := smr.NewKV(c.replicas[0])
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
	before := c.replicas[1].Applied()
	c.fab.Attach(1, nil)
	if err := c.replicas[1].Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	close(stop)
	wg.Wait()

	info, err := c.boot(1, 1, 1)
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

// captureTr records outbound messages so a test can observe what a
// replica (without a live mesh) says to its peers.
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
	}{to, msg})
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
		if err := json.Unmarshal(sm.InnerBody, &b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// slotMsg wraps an inner core message for delivery via Replica.Handle.
func slotMsg(t *testing.T, slot int, inner consensus.Message) *smr.SlotMessage {
	t.Helper()
	body, err := json.Marshal(inner)
	if err != nil {
		t.Fatal(err)
	}
	return &smr.SlotMessage{Slot: slot, InnerKind: inner.Kind(), InnerBody: body}
}

func TestDurablePromiseSurvivesRestart(t *testing.T) {
	// The paper's recovery rule assumes a recovering acceptor still knows
	// the ballots it joined. Join ballot 5, crash without a clean close,
	// restart, and check the replica refuses to join the lower ballot 3 —
	// an amnesiac replica would.
	dir := t.TempDir()
	cfg := consensus.Config{ID: 2, N: 3, F: 1, E: 1, Delta: 10}
	mk := func() (*smr.Replica, *captureTr, smr.RecoveryInfo) {
		r, err := smr.NewReplica(cfg, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		info, err := r.EnableDurability(smr.DurabilityOptions{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		tr := &captureTr{self: cfg.ID}
		r.BindTransport(tr)
		r.Start()
		return r, tr, info
	}

	r1, tr1, _ := mk()
	r1.Handle(1, slotMsg(t, 0, &core.OneA{Ballot: 5}))
	r1.SyncIO() // sends are pipelined behind Handle; drain before inspecting
	replies := tr1.oneBs(t, 0)
	if len(replies) != 1 || replies[0].Ballot != 5 {
		t.Fatalf("expected one 1B(5), got %+v", replies)
	}
	// Crash: abandon r1 without Close (SyncAlways already made the join
	// durable). The restarted replica must still hold the promise.
	r2, tr2, info := mk()
	defer r2.Close()
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
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	r, err := smr.NewReplica(cfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tr := &captureTr{self: 0}
	r.BindTransport(tr)

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
	// A shallow mesh (depth 8) drops decide traffic under load; the
	// periodic status gossip plus the decided tail in CatchupReply must
	// still converge every replica onto the full log.
	replicas := make([]*smr.Replica, 3)
	mesh := transport.NewMeshWithDepth(3, 8)
	for i := range replicas {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: 3, F: 1, E: 1, Delta: 10}
		r, err := smr.NewReplica(cfg, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := mesh.Endpoint(cfg.ID, r.Handle)
		if err != nil {
			t.Fatal(err)
		}
		r.BindTransport(tr)
		replicas[i] = r
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Close()
		}
		mesh.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := smr.NewKV(replicas[0])
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
	c := newDurableCluster(t, 3, 1, 1, func(dir string, i int) smr.DurabilityOptions {
		return smr.DurabilityOptions{Dir: dir, Policy: wal.SyncNever, SnapshotEvery: 5}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv := smr.NewKV(c.replicas[0])
	for j := 0; j < 12; j++ {
		if err := kv.Put(ctx, fmt.Sprintf("i%d", j), "x"); err != nil {
			t.Fatal(err)
		}
	}
	info := c.replicas[0].Info()
	if !info.Durable {
		t.Fatal("Info does not report durability")
	}
	if info.Applied < 12 || info.WalSegments < 1 || info.WalBytes <= 0 {
		t.Fatalf("implausible info: %+v", info)
	}
	if info.SnapshotIndex == 0 {
		t.Fatalf("snapshots (every 5 commands) never taken: %+v", info)
	}
	if got := info.String(); got == "" {
		t.Fatal("empty INFO line")
	}
}

func TestEnableDurabilityTwiceFails(t *testing.T) {
	dir := t.TempDir()
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	r, err := smr.NewReplica(cfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.EnableDurability(smr.DurabilityOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableDurability(smr.DurabilityOptions{Dir: dir}); err == nil {
		t.Fatal("second EnableDurability succeeded")
	}
	if _, err := r.EnableDurability(smr.DurabilityOptions{}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPoisonedReplicaRejectsWork(t *testing.T) {
	// After a journaling failure nothing may become externally visible, so
	// the replica refuses work; clients get ErrClosed, not silent
	// un-journaled progress. It still holds its resources, and Close must
	// still give them back: the listener, and a data dir that reopens.
	dir := t.TempDir()
	cfg := consensus.Config{ID: 0, N: 1, F: 0, E: 0, Delta: 10}
	r, err := smr.NewReplica(cfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A tiny failpoint trips on the very first journaled record.
	if _, err := r.EnableDurability(smr.DurabilityOptions{Dir: dir, FailpointLimit: 20}); err != nil {
		t.Fatal(err)
	}
	codec := consensus.NewCodec()
	smr.RegisterMessages(codec)
	tr, err := transport.NewTCP(0, map[consensus.ProcessID]string{0: "127.0.0.1:0"}, codec, r.Handle)
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.Addr()
	r.BindTransport(tr)
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = smr.NewKV(r).Put(ctx, "k", "v")
	if err == nil {
		t.Fatal("write succeeded past a journaling failure")
	}
	if !errors.Is(err, smr.ErrClosed) && ctx.Err() == nil {
		t.Fatalf("unexpected error: %v", err)
	}

	if err := r.Close(); err != nil {
		t.Fatalf("close after poisoning: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("Close left the poisoned replica's listener open: %v", err)
	}
	ln.Close()
	r2, err := smr.NewReplica(cfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.EnableDurability(smr.DurabilityOptions{Dir: dir}); err != nil {
		t.Fatalf("reopen the poisoned replica's data dir: %v", err)
	}
	r2.Start()
	if err := smr.NewKV(r2).Put(ctx, "k", "v"); err != nil {
		t.Fatalf("write on the reopened data dir: %v", err)
	}
}

// TestTeardownReleasesBlockedCallers blocks one caller in every way a
// replica can hold one — Execute, WaitApplied, ReadBarrier (a round leader
// and a rider) and a batched Submit (a chunk in flight and one queued) — on
// a replica that can reach no quorum, then stops it each of the three ways.
// Every caller must return ErrClosed, none may hang, and the Close that
// follows must find nothing left to close a second time.
func TestTeardownReleasesBlockedCallers(t *testing.T) {
	stops := map[string]func(t *testing.T, r *smr.Replica){
		"close": func(t *testing.T, r *smr.Replica) { r.Close() },
		"kill":  func(t *testing.T, r *smr.Replica) { r.Kill() },
		"poison": func(t *testing.T, r *smr.Replica) {
			// One record past the WAL failpoint.
			fat := smr.Command{Op: smr.OpPut, Key: "fat", Val: strings.Repeat("x", 1<<15)}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := r.Execute(ctx, fat); !errors.Is(err, smr.ErrClosed) {
				t.Errorf("poisoning write: %v, want ErrClosed", err)
			}
		},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			// Peers 1 and 2 never attach: nothing proposed here decides.
			mesh := transport.NewMesh(3)
			defer mesh.Close()
			cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
			r, err := smr.NewReplica(cfg, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.EnableDurability(smr.DurabilityOptions{Dir: t.TempDir(), FailpointLimit: 1 << 14}); err != nil {
				t.Fatal(err)
			}
			r.EnableAdaptiveBatching(0)
			tr, err := mesh.Endpoint(0, r.Handle)
			if err != nil {
				t.Fatal(err)
			}
			r.BindTransport(tr)
			r.Start()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			put := func(key string) smr.Command { return smr.Command{Op: smr.OpPut, Key: key, Val: "v"} }
			calls := map[string]func() error{
				"Execute":            func() error { _, err := r.Execute(ctx, put("e")); return err },
				"WaitApplied":        func() error { return r.WaitApplied(ctx, 1000) },
				"ReadBarrier leader": func() error { return r.ReadBarrier(ctx) },
				"ReadBarrier rider":  func() error { return r.ReadBarrier(ctx) },
				"Submit in flight":   func() error { return r.Submit(ctx, put("s1")) },
				"Submit queued":      func() error { return r.Submit(ctx, put("s2")) },
			}
			type result struct {
				call string
				err  error
			}
			results := make(chan result, len(calls))
			for call, fn := range calls {
				go func() { results <- result{call, fn()} }()
			}
			// Execute, the read round and the batch flush each hold a slot.
			for deadline := time.Now().Add(10 * time.Second); r.Info().OpenSlots < 3; {
				if time.Now().After(deadline) {
					t.Fatalf("only %d callers reached a slot", r.Info().OpenSlots)
				}
				time.Sleep(time.Millisecond)
			}

			stop(t, r)
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
			if err := r.Close(); err != nil {
				t.Errorf("close after %s: %v", name, err)
			}
		})
	}
}
