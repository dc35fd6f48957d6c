package smr_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wan"
)

// procOptions is what differs between the processes smr's suites boot.
// Everything else is fixed: one 1-group shard.Runtime per fabric endpoint —
// the process cmd/kv ships, which is the only thing
// that ever builds an smr.Replica.
type procOptions struct {
	groups int               // 0: 1
	tick   time.Duration     // 0: 1 ms
	leases *smr.LeaseOptions // nil: leases off
	// dur, when set, makes process i durable with what it returns.
	dur func(i int) *shard.Durability
	// bind0, when set, wraps the endpoint process 0 sends through. What it
	// sees is what the wire carries: group envelopes (see inner).
	bind0 func(tr transport.Transport) transport.Transport
}

// testCluster is n such processes on the in-process fabric. A process can
// be closed or crash-killed through its runtime and rebooted in place from
// its data directory.
type testCluster struct {
	t       testing.TB
	n, f, e int
	o       procOptions
	fab     *cluster.Fabric
	rts     []*shard.Runtime
	once    sync.Once
}

func newTestCluster(t testing.TB, n, f, e int, o procOptions) *testCluster {
	t.Helper()
	fab, err := cluster.NewFabric(n, nil, wan.Topology{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{t: t, n: n, f: f, e: e, o: o, fab: fab, rts: make([]*shard.Runtime, n)}
	t.Cleanup(c.close)
	for i := 0; i < n; i++ {
		if _, err := c.boot(i); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// open builds process i's runtime (recovering from its data directory when
// it has one) without attaching it to the fabric. The reported TornTail
// also covers what opening the WAL truncated.
func (c *testCluster) open(i int) (*shard.Runtime, smr.RecoveryInfo, error) {
	opts := shard.Options{
		Groups: max(c.o.groups, 1),
		Config: consensus.Config{ID: consensus.ProcessID(i), N: c.n, F: c.f, E: c.e, Delta: 10},
		Tick:   c.o.tick,
		Leases: c.o.leases,
	}
	if opts.Tick == 0 {
		opts.Tick = time.Millisecond
	}
	if c.o.dur != nil {
		opts.Durability = c.o.dur(i)
	}
	rt, err := shard.New(opts)
	if err != nil {
		return nil, smr.RecoveryInfo{}, err
	}
	var info smr.RecoveryInfo
	if recs, winfo := rt.Recovery(); len(recs) > 0 {
		info = recs[0]
		info.TornTail = info.TornTail || winfo.TornTail
	}
	return rt, info, nil
}

// boot opens process i and puts it behind fabric endpoint i.
func (c *testCluster) boot(i int) (smr.RecoveryInfo, error) {
	rt, info, err := c.open(i)
	if err != nil {
		return info, err
	}
	tr := c.fab.Transport(i)
	if i == 0 && c.o.bind0 != nil {
		tr = c.o.bind0(tr)
	}
	rt.BindTransport(tr)
	c.fab.Attach(i, rt.Handler())
	c.rts[i] = rt
	rt.Start()
	return info, nil
}

// restart closes process i (a no-op if it was closed or killed already)
// and boots a fresh one from the same data directory.
func (c *testCluster) restart(i int) smr.RecoveryInfo {
	c.t.Helper()
	c.fab.Attach(i, nil)
	c.rts[i].Close() // what it left on disk is checked by the reboot
	info, err := c.boot(i)
	if err != nil {
		c.t.Fatal(err)
	}
	return info
}

// tap shows see every message delivered to process i, group envelope on,
// before the process handles it.
func (c *testCluster) tap(i int, see func(consensus.Message)) {
	h := c.rts[i].Handler()
	c.fab.Attach(i, func(from consensus.ProcessID, msg consensus.Message) {
		see(msg)
		h(from, msg)
	})
}

// pinLogs loses every applied-index gossip from here on: no process hears
// that its peers caught up, so every log keeps its decided tail (up to
// smr.RetainSlots) for the test to read back. Nothing heals by catch-up
// meanwhile.
func (c *testCluster) pinLogs() {
	for i, rt := range c.rts {
		h := rt.Handler()
		c.fab.Attach(i, func(from consensus.ProcessID, msg consensus.Message) {
			if _, gossip := msg.(*shard.Status); !gossip {
				h(from, msg)
			}
		})
	}
}

// replicas returns each process's one group.
func (c *testCluster) replicas() []*smr.Replica {
	out := make([]*smr.Replica, c.n)
	for i, rt := range c.rts {
		out[i] = rt.Group(0)
	}
	return out
}

// waitApplied waits until process i has applied at least want slots.
func (c *testCluster) waitApplied(i, want int, d time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(d)
	for c.rts[i].Group(0).Applied() < want {
		if time.Now().After(deadline) {
			c.t.Fatalf("replica %d stuck at %d/%d applied", i, c.rts[i].Group(0).Applied(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *testCluster) close() {
	c.once.Do(func() {
		for _, rt := range c.rts {
			if rt != nil {
				rt.Close()
			}
		}
		c.fab.Close()
	})
}

// startCluster boots n in-memory processes and returns their replicas.
func startCluster(t testing.TB, n, f, e int) ([]*smr.Replica, func()) {
	t.Helper()
	c := newTestCluster(t, n, f, e, procOptions{})
	return c.replicas(), c.close
}

// wireCodec decodes what a group envelope carries.
var wireCodec = func() *consensus.Codec {
	c := consensus.NewCodec()
	smr.RegisterMessages(c)
	return c
}()

// inner peels the group envelope off a message a process put on the wire,
// as the receiving process's mux would.
func inner(msg consensus.Message) consensus.Message {
	gm, ok := msg.(*shard.GroupMessage)
	if !ok {
		return msg
	}
	m, err := wireCodec.DecodeBody(gm.InnerKind, gm.InnerBody)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewReplicaRejectsBadInput(t *testing.T) {
	// The test is the group's owner here: its scheduler, its WAL.
	dir := t.TempDir()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	io := smr.NewIOScheduler(w, 1)
	defer io.Close()
	bare := smr.NewIOScheduler(nil, 1) // an in-memory process: nothing commits a journal
	defer bare.Close()
	good := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	for _, tc := range []struct {
		name string
		cfg  consensus.Config
		tick time.Duration
		io   *smr.IOScheduler // nil: io
		opts smr.ReplicaOptions
	}{
		{"invalid quorum config", consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10, FastSize: 1, RecoverySize: 1}, time.Millisecond, nil, smr.ReplicaOptions{}},
		{"tick 0", good, 0, nil, smr.ReplicaOptions{}},
		{"tick < 0", good, -time.Millisecond, nil, smr.ReplicaOptions{}},
		{"2ε >= lease duration", good, time.Millisecond, nil, smr.ReplicaOptions{Leases: &smr.LeaseOptions{Duration: 100 * time.Millisecond, Epsilon: 50 * time.Millisecond}}},
		{"durable on a scheduler without a log", good, time.Millisecond, bare, smr.ReplicaOptions{Durability: &smr.DurabilityOptions{}}},
	} {
		sched := io
		if tc.io != nil {
			sched = tc.io
		}
		if r, _, err := smr.NewReplica(tc.cfg, tc.tick, sched, smr.FixedLeaders{}, nil, tc.opts); err == nil {
			r.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
	r, _, err := smr.NewReplica(good, time.Millisecond, io, smr.FixedLeaders{}, nil, smr.ReplicaOptions{
		Leases:     &smr.LeaseOptions{},
		Durability: &smr.DurabilityOptions{},
	})
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	r.Close()
}

// TestNewReplicaRefusesBelowTheBound: a group of n processes tolerating f
// crashes, e of them on the fast path, needs n ≥ max{2e+f−1, 2f+1} (Theorem 6);
// one process fewer and some schedule loses an acknowledged write, so the
// replica is refused. Flexible quorum sizes are checked against their own
// bound instead.
func TestNewReplicaRefusesBelowTheBound(t *testing.T) {
	io := smr.NewIOScheduler(nil, 1)
	defer io.Close()
	for _, tc := range []struct {
		n, f, e int
		ok      bool
	}{
		{1, 0, 0, true},
		{2, 1, 0, false}, // 2f+1 binds
		{2, 1, 1, false},
		{3, 1, 1, true},
		{4, 2, 1, false},
		{5, 2, 1, true},
		{4, 2, 2, false},
		{5, 2, 2, true},
		{6, 3, 2, false},
		{7, 3, 2, true},
		{7, 3, 3, false}, // 2e+f−1 binds: 8
		{8, 3, 3, true},
	} {
		cfg := consensus.Config{ID: 0, N: tc.n, F: tc.f, E: tc.e, Delta: 10}
		r, _, err := smr.NewReplica(cfg, time.Millisecond, io, smr.FixedLeaders{}, nil, smr.ReplicaOptions{})
		if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, quorum.ErrInfeasible) {
			t.Errorf("n=%d f=%d e=%d: %v, want accepted %t", tc.n, tc.f, tc.e, err, tc.ok)
		}
		if err == nil {
			r.Close()
		}
	}
	flex, err := quorum.SmallestFastFlex(7, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := consensus.Config{ID: 0, N: 7, F: 3, E: 3, Delta: 10, FastSize: flex.Fast, RecoverySize: flex.Recovery}
	r, _, err := smr.NewReplica(cfg, time.Millisecond, io, smr.FixedLeaders{}, nil, smr.ReplicaOptions{})
	if err != nil {
		t.Fatalf("flexible n=7 f=3 e=3 (%+v): %v", flex, err)
	}
	r.Close()
}

func TestKVPutGet(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 2)
	defer cleanup()

	kv := replicas[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := kv.Put(ctx, "city", "huatulco"); err != nil {
		t.Fatal(err)
	}
	if got, ok := kv.Get("city"); !ok || got != "huatulco" {
		t.Fatalf("Get(city) = %q ok=%v", got, ok)
	}
	if err := kv.Put(ctx, "city", "madrid"); err != nil {
		t.Fatal(err)
	}
	if got, _ := kv.Get("city"); got != "madrid" {
		t.Fatalf("Get(city) = %q after overwrite", got)
	}
	if err := kv.Delete(ctx, "city"); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("city"); ok {
		t.Fatal("key survives deletion")
	}
}

func TestConcurrentProxiesConvergeOnOneLog(t *testing.T) {
	c := newTestCluster(t, 5, 2, 1, procOptions{})
	c.pinLogs()
	replicas := c.replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const perProxy = 5
	var wg sync.WaitGroup
	errs := make(chan error, len(replicas)*perProxy)
	for i, r := range replicas {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv := r
			for j := 0; j < perProxy; j++ {
				key := fmt.Sprintf("k%d-%d", i, j)
				if err := kv.Put(ctx, key, fmt.Sprintf("v%d", j)); err != nil {
					errs <- fmt.Errorf("proxy %d: %w", i, err)
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

	// Each of the 25 commands wins exactly one slot, so every replica must
	// eventually apply 25 contiguous slots.
	want := len(replicas) * perProxy
	deadline := time.Now().Add(10 * time.Second)
	for i, r := range replicas {
		for r.Applied() < want {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at %d/%d applied", i, r.Applied(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Logs must agree slot by slot.
	for slot := 0; slot < want; slot++ {
		v0, ok := replicas[0].LogValue(slot)
		if !ok {
			t.Fatalf("replica 0 missing slot %d", slot)
		}
		for i, r := range replicas {
			if v, ok := r.LogValue(slot); ok && v != v0 {
				t.Fatalf("replica %d slot %d: %v != %v", i, slot, v, v0)
			}
		}
	}
	// All written keys visible on proxy 0 after it applied everything.
	for i := range replicas {
		for j := 0; j < perProxy; j++ {
			key := fmt.Sprintf("k%d-%d", i, j)
			if _, ok := replicas[0].Get(key); !ok {
				t.Errorf("key %s missing from replica 0 store", key)
			}
		}
	}
}

func TestGetLinearizableSeesOtherProxiesWrites(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 2)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	writer := replicas[1]
	reader := replicas[4]

	if err := writer.Put(ctx, "x", "1"); err != nil {
		t.Fatal(err)
	}
	// A linearizable read through any proxy must observe the acknowledged
	// write, no matter how far behind the proxy's applied state is.
	got, ok, err := reader.GetLinearizable(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got != "1" {
		t.Fatalf("GetLinearizable = %q ok=%v, want \"1\"", got, ok)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmd := smr.Command{ID: "p1-7", Op: smr.OpPut, Key: "a", Val: "b"}
	v, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := smr.DecodeCommand(v)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cmd) {
		t.Fatalf("round trip: %+v != %+v", got, cmd)
	}
	if v.IsNone() || v.Key <= 0 {
		t.Fatalf("encoded ordering key %d must be positive", v.Key)
	}
}
