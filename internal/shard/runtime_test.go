package shard_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
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
	return bootClusterWith(t, groups, func(i int) *shard.Durability {
		if dirs[i] == "" {
			return nil
		}
		return &shard.Durability{Dir: dirs[i], Policy: wal.SyncAlways, SnapshotEvery: 32}
	})
}

// bootClusterWith is bootCluster with process i's durability spelled out.
func bootClusterWith(t *testing.T, groups int, dur func(i int) *shard.Durability) (rts [3]*shard.Runtime, mesh *transport.Mesh) {
	t.Helper()
	const n, f, e = 3, 1, 1
	mesh = transport.NewMesh(n)
	for i := 0; i < n; i++ {
		rt, err := shard.New(shard.Options{
			Groups:     groups,
			Config:     consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10},
			Tick:       time.Millisecond,
			Durability: dur(i),
		})
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

// TestRuntimeAlwaysBatches: a runtime built without AdaptiveBatch batches
// anyway — every group hands its writes to the batcher, so concurrent writes
// to one group share slots.
func TestRuntimeAlwaysBatches(t *testing.T) {
	rts, mesh := bootCluster(t, 1, [3]string{}) // AdaptiveBatch left false
	defer mesh.Close()
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	c := ctx(t)
	const writers = 16
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) { errs <- rts[0].Put(c, fmt.Sprintf("key-%d", i), "v") }(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := rts[0].Group(0).BatchStats(); st.Cmds != writers || st.Batches >= writers {
		t.Fatalf("batch stats = %+v, want %d commands in fewer than %d batches", st, writers, writers)
	}
}

// TestRuntimeGracefulRecovery writes through a durable sharded cluster,
// closes it, and reopens each process from disk: every group's state must
// come back from the demuxed shared WAL.
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

	// Reopen process 0 alone: recovery is local (the WAL), no
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

// jsonEraDir opens a 1-group runtime on a data directory whose WAL holds one
// record, and (if snap is set) whose snapshot directory one snapshot file, as
// the last JSON-writing commit left them — and returns the error and what the
// WAL holds afterwards.
func jsonEraDir(t *testing.T, record, snap string) (wal.Stats, error) {
	t.Helper()
	dir := t.TempDir()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte(record)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if snap != "" {
		writeFile(t, filepath.Join(dir, "snap", oldSnapName), snap)
	}
	rt, err := shard.New(shard.Options{
		Groups:     1,
		Config:     consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
		Tick:       time.Millisecond,
		Durability: &shard.Durability{Dir: dir, Policy: wal.SyncAlways},
	})
	if err == nil {
		rt.Close()
	}
	w, _, werr := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways})
	if werr != nil {
		t.Fatal(werr)
	}
	defer w.Close()
	return w.Stats(), err
}

// oldSnapName is the name the older layout gave the snapshot of applied index 1.
const oldSnapName = "snap-0000000000000001.snap"

// writeFile writes body to path, making its directory.
func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

const (
	jsonEraDecide   = `{"k":"d","slot":0,"v":{"key":4611686018427387904,"data":"{\"id\":\"p0-1\",\"op\":\"put\",\"key\":\"a\",\"val\":\"1\"}"}}`
	jsonEraSnapshot = `{"applied":1,"store":{"a":"1"},"compactFloor":0,"seq":1,"walNext":1}`
)

// A data directory is never migrated: the version byte refuses a JSON-era
// WAL record by name, the open fails, and nothing is appended behind it.
func TestOpenRejectsJSONWAL(t *testing.T) {
	st, err := jsonEraDir(t, jsonEraDecide, "")
	if !errors.Is(err, consensus.ErrFormatVersion) || !strings.Contains(err.Error(), "wal record") {
		t.Fatalf("open on a JSON WAL: %v, want the format-version error naming the WAL record", err)
	}
	if st.NextIndex != 2 {
		t.Fatalf("WAL next index %d after the refused open, want 2: the one fixture record and nothing journaled", st.NextIndex)
	}
}

// The same for a JSON-era snapshot, which is a file of the older layout:
// nothing reads it any more, so the open refuses it by name before the WAL.
func TestOpenRejectsJSONSnapshot(t *testing.T) {
	st, err := jsonEraDir(t, jsonEraDecide, jsonEraSnapshot)
	if err == nil || !strings.Contains(err.Error(), filepath.Join("snap", oldSnapName)) {
		t.Fatalf("open on a JSON snapshot: %v, want the older-layout error naming the snapshot file", err)
	}
	if st.NextIndex != 2 {
		t.Fatalf("WAL next index %d after the refused open, want 2", st.NextIndex)
	}
}

// TestShardedWALLayoutSingleGroup pins the on-disk layout: a 1-group runtime
// writes Dir/wal, with no g0 subdirectory.
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
		t.Fatalf("1-group runtime created %v: group 0 lives in the data directory itself", m)
	}
}

// TestNewRefusesOldSnapshotLayout: a snapshot file where the older layout
// kept group 0's (Dir/snap) or group i's (Dir/g<i>/snap) holds state whose
// WAL prefix was truncated, and nothing reads it now: the open is refused
// with an error that names the file, before the WAL is opened.
func TestNewRefusesOldSnapshotLayout(t *testing.T) {
	for _, sub := range []string{"snap", filepath.Join("g1", "snap")} {
		dir := t.TempDir()
		file := filepath.Join(dir, sub, oldSnapName)
		writeFile(t, file, "SNAP0001")
		rt, err := shard.New(shard.Options{
			Groups:     2,
			Config:     consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
			Tick:       time.Millisecond,
			Durability: &shard.Durability{Dir: dir},
		})
		if err == nil {
			rt.Close()
			t.Fatalf("a snapshot file in %s accepted", sub)
		}
		if !strings.Contains(err.Error(), file) {
			t.Fatalf("refusing %s: %v, want the error to name the file", file, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the refused open made a WAL: %v", err)
		}
	}
}

// TestDataDirHoldsOnlyWAL: a durable process's state is its WAL alone. After
// a run in which every group of every process journals snapshots, each data
// directory holds wal/ and nothing else.
func TestDataDirHoldsOnlyWAL(t *testing.T) {
	const groups = 2
	var dirs [3]string
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	rts, mesh := bootClusterWith(t, groups, func(i int) *shard.Durability {
		return &shard.Durability{Dir: dirs[i], SnapshotEvery: 4}
	})
	c := ctx(t)
	for i := 0; i < 64; i++ {
		if err := rts[0].Put(c, fmt.Sprintf("key-%d", i), "v"); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i, rt := range rts {
		rt.SyncIO()
		for g := 0; g < groups; g++ {
			if info := rt.Group(g).Info(); info.SnapshotIndex == 0 {
				t.Fatalf("process %d group %d took no snapshot in %d applied", i, g, info.Applied)
			}
		}
	}
	for _, rt := range rts {
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mesh.Close()
	for i, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"wal"}) {
			t.Fatalf("process %d's data directory holds %v, want [wal]", i, names)
		}
	}
}

// TestNewRefusesFsyncPolicies: the served stack has one durability rule —
// nothing leaves the process before its records are on stable storage — so
// a policy that would let a vote or an ack out first is refused, by name,
// before anything is opened.
func TestNewRefusesFsyncPolicies(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncInterval, wal.SyncNever} {
		dir := t.TempDir()
		rt, err := shard.New(shard.Options{
			Groups:     1,
			Config:     consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
			Tick:       time.Millisecond,
			Durability: &shard.Durability{Dir: dir, Policy: policy},
		})
		if err == nil {
			rt.Close()
			t.Fatalf("policy %v accepted", policy)
		}
		if !strings.Contains(err.Error(), policy.String()) {
			t.Errorf("policy %v refused without naming it: %v", policy, err)
		}
		if m, _ := filepath.Glob(filepath.Join(dir, "*")); len(m) != 0 {
			t.Errorf("policy %v refused after creating %v", policy, m)
		}
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

// TestInboundBuffersAreNotRetained: a message decoded off the wire is made of
// windows into the transport's read buffer, which the next frame overwrites.
// A Propose and then a Decide are decoded out of one buffer, delivered
// through Runtime.Handler() → Replica.Handle, and the buffer scribbled over after
// each: the slot's value, the applied store and — after a restart — the WAL
// records must all still hold the command.
func TestInboundBuffersAreNotRetained(t *testing.T) {
	dir := t.TempDir()
	open := func() *shard.Runtime {
		rt, err := shard.New(shard.Options{
			Groups:     1,
			Config:     consensus.Config{ID: 1, N: 3, F: 1, E: 1, Delta: 10},
			Tick:       time.Millisecond,
			Durability: &shard.Durability{Dir: dir, Policy: wal.SyncAlways, SnapshotEvery: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := open()
	mesh := transport.NewMesh(3)
	defer mesh.Close()
	ep, err := mesh.Endpoint(1, rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	rt.BindTransport(ep)

	wire := consensus.NewCodec()
	shard.RegisterMessages(wire)
	cmd := smr.Command{ID: "p0-1", Op: smr.OpPut, Key: "key-\xff", Val: strings.Repeat("v", 200)}
	val, _ := cmd.Encode()
	buf := make([]byte, 0, 1024)
	deliver := func(inner consensus.Message) {
		slot := &smr.SlotMessage{Slot: 0, InnerKind: inner.Kind(), InnerBody: inner.AppendBody(nil)}
		buf = wire.Append(buf[:0], &shard.GroupMessage{Group: 0, InnerKind: slot.Kind(), InnerBody: slot.AppendBody(nil)})
		msg, err := wire.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		rt.Handler()(0, msg)
		for i := range buf {
			buf[i] = 0xAA
		}
	}
	deliver(&core.ProposeMsg{Value: val})
	deliver(&core.DecideMsg{Value: val})
	rt.SyncIO()

	if got, ok := rt.Group(0).LogValue(0); !ok || got != val {
		t.Fatalf("after the buffer was overwritten: slot 0 holds %.40q, %t", got.Data, ok)
	}
	if got, ok := rt.Get(cmd.Key); !ok || got != cmd.Val {
		t.Fatalf("after the buffer was overwritten: store holds %.40q, %t", got, ok)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt = open()
	defer rt.Close()
	if recs, _ := rt.Recovery(); len(recs) != 1 || recs[0].WalRecords < 2 {
		t.Fatalf("recovery = %+v, want the vote and the decision replayed", recs)
	}
	// The slot itself is applied and retired by recovery; what its records
	// held is what the store now shows.
	if got, ok := rt.Get(cmd.Key); !ok || got != cmd.Val {
		t.Fatalf("replayed from the WAL: store holds %.40q, %t", got, ok)
	}
}
