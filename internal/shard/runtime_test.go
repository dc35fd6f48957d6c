package shard_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
)

// bootCluster builds a 3-process cluster where each process hosts `groups`
// consensus groups over one mesh endpoint. dirs[i] != "" enables the
// shared-WAL durability layer for process i.
func bootCluster(t *testing.T, groups int, dirs [3]string) (rts [3]*shard.Runtime, mesh *transport.Mesh) {
	t.Helper()
	const n, f, e = 3, 1, 1
	mesh = transport.NewMesh(n)
	for i := 0; i < n; i++ {
		opts := shard.Options{
			Groups: groups,
			Config: consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10},
			Tick:   time.Millisecond,
		}
		if dirs[i] != "" {
			opts.Durability = &shard.Durability{Dir: dirs[i], Policy: wal.SyncAlways, SnapshotEvery: 32}
		}
		rt, err := shard.New(opts)
		if err != nil {
			t.Fatalf("shard.New(%d): %v", i, err)
		}
		ep, err := mesh.Endpoint(consensus.ProcessID(i), rt.Handler())
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		rt.BindTransport(ep)
		rt.Start()
		rts[i] = rt
	}
	return rts, mesh
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// TestRuntimeRoutesAcrossGroups drives writes through one process and
// checks every key lands in — and reads back from — its routed group, with
// multiple groups actually exercised (independent slot spaces).
func TestRuntimeRoutesAcrossGroups(t *testing.T) {
	const groups = 4
	rts, mesh := bootCluster(t, groups, [3]string{})
	defer mesh.Close()
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()

	c := ctx(t)
	const keys = 40
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := rts[0].Put(c, k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	touched := 0
	for g := 0; g < groups; g++ {
		if rts[0].Group(g).Applied() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("only %d of %d groups applied anything: keys are not spreading", touched, groups)
	}
	router := rts[0].Router()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok, err := rts[0].GetLinearizable(c, k)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("getl %s: %q %v %v", k, v, ok, err)
		}
		// The value must live in the routed group and no other.
		g := router.Group(k)
		if _, ok := rts[0].Group(g).Get(k); !ok {
			t.Errorf("key %s missing from its routed group %d", k, g)
		}
		for o := 0; o < groups; o++ {
			if o == g {
				continue
			}
			if _, ok := rts[0].Group(o).Get(k); ok {
				t.Errorf("key %s leaked into group %d (routed to %d)", k, o, g)
			}
		}
	}

	// Independent slot spaces: total applied across groups accounts for all
	// keys plus the GETL no-ops, not keys stacked into one log.
	info := rts[0].Info()
	if info.Groups != groups || info.Applied < keys {
		t.Fatalf("info = %+v, want %d groups and >= %d applied", info, groups, keys)
	}
	line := info.String()
	if !strings.Contains(line, "groups=4") || !strings.Contains(line, "g3_applied=") {
		t.Fatalf("info line missing per-group stats: %q", line)
	}
}

// TestRuntimeGracefulRecovery writes through a durable sharded cluster,
// closes it, and reopens each process from disk: every group's state must
// come back from the demuxed shared WAL + per-group snapshots.
func TestRuntimeGracefulRecovery(t *testing.T) {
	const groups = 4
	var dirs [3]string
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	rts, mesh := bootCluster(t, groups, dirs)

	c := ctx(t)
	const keys = 48
	for i := 0; i < keys; i++ {
		if err := rts[0].Put(c, fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for _, rt := range rts {
		if err := rt.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	mesh.Close()

	// Reopen process 0 alone: recovery is local (snapshot + WAL), no
	// transport or peers needed.
	rt, err := shard.New(shard.Options{
		Groups:     groups,
		Config:     consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
		Tick:       time.Millisecond,
		Durability: &shard.Durability{Dir: dirs[0], Policy: wal.SyncAlways, SnapshotEvery: 32},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rt.Close()
	recov, _ := rt.Recovery()
	recovered := false
	for _, ri := range recov {
		if ri.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no group reported recovered state")
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := rt.Get(k); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("after recovery %s = %q,%v", k, v, ok)
		}
	}
}

// TestRuntimeCrashRecovery is the crash-consistency variant: Kill abandons
// unsynced buffers, but every acknowledged write (SyncAlways) must survive
// the restart of all three processes.
func TestRuntimeCrashRecovery(t *testing.T) {
	const groups = 3
	var dirs [3]string
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	rts, mesh := bootCluster(t, groups, dirs)

	c := ctx(t)
	const keys = 30
	for i := 0; i < keys; i++ {
		if err := rts[0].Put(c, fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for _, rt := range rts {
		if err := rt.Kill(); err != nil {
			t.Fatalf("kill: %v", err)
		}
	}
	mesh.Close()

	rts2, mesh2 := bootCluster(t, groups, dirs)
	defer mesh2.Close()
	defer func() {
		for _, rt := range rts2 {
			rt.Close()
		}
	}()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok, err := rts2[0].GetLinearizable(c, k)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked write lost across crash: %s = %q,%v,%v", k, v, ok, err)
		}
	}
}

// TestSingleGroupReadsPreShardingWAL pins backward compatibility: a data
// directory written by a plain (pre-sharding) smr.Replica must open under
// a 1-group runtime with all state intact — old records carry no group tag
// and belong to group 0, whose snapshot dir is the legacy Dir/snap. The
// test stands in for the old standalone replica as the owner of each
// group: its scheduler, and a plain *wal.WAL at Dir/wal as the journal,
// which is byte for byte what those replicas wrote.
func TestSingleGroupReadsPreShardingWAL(t *testing.T) {
	const n, f, e = 3, 1, 1
	var dirs [3]string
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	mesh := transport.NewMesh(n)
	var reps [3]*smr.Replica
	var ios [3]*smr.IOScheduler
	var wals [3]*wal.WAL
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		ios[i] = smr.NewIOScheduler()
		rep, err := smr.NewReplica(cfg, time.Millisecond, ios[i])
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := wal.Open(filepath.Join(dirs[i], "wal"), wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		wals[i] = w
		if _, err := rep.EnableDurability(smr.DurabilityOptions{Dir: dirs[i], Journal: w, Policy: wal.SyncAlways, SnapshotEvery: 16}); err != nil {
			t.Fatal(err)
		}
		ep, err := mesh.Endpoint(cfg.ID, rep.Handle)
		if err != nil {
			t.Fatal(err)
		}
		rep.BindTransport(ep)
		rep.Start()
		reps[i] = rep
	}
	c := ctx(t)
	const keys = 40 // past SnapshotEvery, so recovery mixes snapshot + WAL tail
	kv := smr.NewKV(reps[0])
	for i := 0; i < keys; i++ {
		if err := kv.Put(c, fmt.Sprintf("legacy-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i, rep := range reps {
		rep.Close()
		ios[i].Close()
		if err := wals[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	mesh.Close()

	rt, err := shard.New(shard.Options{
		Groups:     1,
		Config:     consensus.Config{ID: 0, N: n, F: f, E: e, Delta: 10},
		Tick:       time.Millisecond,
		Durability: &shard.Durability{Dir: dirs[0], Policy: wal.SyncAlways},
	})
	if err != nil {
		t.Fatalf("1-group runtime on pre-sharding dir: %v", err)
	}
	defer rt.Close()
	recov, _ := rt.Recovery()
	if len(recov) != 1 || !recov[0].Recovered {
		t.Fatalf("recovery info = %+v, want group 0 recovered", recov)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("legacy-%d", i)
		if v, ok := rt.Get(k); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("legacy key %s = %q,%v after 1-group open", k, v, ok)
		}
	}
}

// TestShardedWALLayoutSingleGroup pins the on-disk layout contract the
// compatibility above rests on: a 1-group runtime writes Dir/wal and
// Dir/snap exactly where the pre-sharding replica did (no g0 subdir).
func TestShardedWALLayoutSingleGroup(t *testing.T) {
	dir := t.TempDir()
	rt, err := shard.New(shard.Options{
		Groups:     1,
		Config:     consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
		Tick:       time.Millisecond,
		Durability: &shard.Durability{Dir: dir, Policy: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"wal"} {
		if m, err := filepath.Glob(filepath.Join(dir, sub, "*")); err != nil || len(m) == 0 {
			t.Fatalf("expected files under %s/%s (glob=%v err=%v)", dir, sub, m, err)
		}
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "g0")); len(m) != 0 {
		t.Fatalf("1-group runtime created %v: group 0 must use the legacy layout", m)
	}
}

// TestServerRoutesSharded fronts a sharded cluster with the stock TCP
// servers (Backend seam) and drives all four commands through a pipelined
// session client: routing must be invisible on the wire.
func TestServerRoutesSharded(t *testing.T) {
	const groups = 4
	rts, mesh := bootCluster(t, groups, [3]string{})
	defer mesh.Close()
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	var addrs []string
	for _, rt := range rts {
		srv, err := smr.NewBackendServer(rt, "127.0.0.1:0", 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	sc, err := smr.NewSessionClient(addrs, smr.SessionOptions{Timeout: 30 * time.Second, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const keys = 32
	for i := 0; i < keys; i++ {
		if err := sc.Put(fmt.Sprintf("wire-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("wire-%d", i)
		v, err := sc.GetLinearizable(k)
		if err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("getl %s = %q,%v", k, v, err)
		}
	}
	if err := sc.Delete("wire-0"); err != nil {
		t.Fatalf("del: %v", err)
	}
	if _, err := sc.GetLinearizable("wire-0"); !errors.Is(err, smr.ErrNotFound) {
		t.Fatalf("deleted key: err = %v, want ErrNotFound", err)
	}
	info, err := sc.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if !strings.Contains(info, "groups=4") || !strings.Contains(info, "g1_applied=") {
		t.Fatalf("INFO lacks per-group stats: %q", info)
	}
	stats, err := sc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(stats, "groups=4") {
		t.Fatalf("STATS lacks group count: %q", stats)
	}
	// Cross-check that more than one group served traffic.
	touched := 0
	for g := 0; g < groups; g++ {
		if rts[0].Group(g).Applied() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("only %d groups touched through the wire", touched)
	}
}
