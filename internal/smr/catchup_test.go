package smr_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/smr/slotlog"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestLaggingReplicaCatchesUpViaSnapshot cuts one replica off while the
// other two retire the slots it missed — by an explicit Compact, and by the
// apply loop on its own once a peer that says nothing is more than
// retainSlots behind — so it cannot be sent the log suffix, only a snapshot.
func TestLaggingReplicaCatchesUpViaSnapshot(t *testing.T) {
	t.Run("compact", func(t *testing.T) { testLaggingReplicaCatchesUp(t, 12, true) })
	t.Run("automatic", func(t *testing.T) {
		if testing.Short() {
			t.Skip("drives more than the retain window of slots")
		}
		testLaggingReplicaCatchesUp(t, smr.RetainSlots+200, false)
	})
}

func testLaggingReplicaCatchesUp(t *testing.T, writes int, compact bool) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()

	// Partition replica 2 (nothing reaches it), then commit a batch of
	// writes through p0.
	c.fab.SetFault(func(_, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: to == 2}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	kv := replicas[0]
	for i := 0; i < writes; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if replicas[2].Applied() != 0 {
		t.Fatalf("partitioned replica applied %d slots", replicas[2].Applied())
	}

	if compact {
		// Compact the healthy replicas below their applied index.
		if floor := replicas[0].Compact(0); floor != replicas[0].Applied() {
			t.Fatalf("compact floor = %d, want %d", floor, replicas[0].Applied())
		}
		replicas[1].Compact(0)
	} else {
		// Nobody compacts: what a silent peer pins is bounded anyway.
		info := replicas[0].Info()
		if want := info.Applied - smr.RetainSlots; info.CompactFloor != want || want <= 0 {
			t.Fatalf("compact floor = %d after %d applied, want %d", info.CompactFloor, info.Applied, want)
		}
		if info.OpenSlots > 4 {
			t.Fatalf("%d open slots on an idle replica", info.OpenSlots)
		}
		if _, ok := replicas[0].LogValue(info.Applied - 1); !ok {
			t.Fatal("slot inside the retain window missing from log")
		}
	}
	if _, ok := replicas[0].LogValue(0); ok {
		t.Fatal("retired slot 0 still in log")
	}

	// Heal the partition; the status gossip announces the healthy applied
	// index and replica 2 installs a snapshot.
	c.fab.SetFault(nil)
	deadline := time.Now().Add(30 * time.Second)
	for replicas[2].Applied() < writes {
		if time.Now().After(deadline) {
			t.Fatalf("lagging replica stuck at %d/%d applied", replicas[2].Applied(), writes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < writes; i++ {
		if v, ok := replicas[2].Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q ok=%v after catch-up", i, v, ok)
		}
	}
	if got := replicas[2].Info().Catchup; got.Installed == 0 {
		t.Fatalf("caught up with %+v: from below the floor that takes a snapshot", got)
	}

	// And the caught-up replica can serve writes again.
	kv2 := replicas[2]
	if err := kv2.Put(ctx, "after", "catchup"); err != nil {
		t.Fatalf("write through caught-up replica: %v", err)
	}
	if v, _ := kv2.Get("after"); v != "catchup" {
		t.Fatalf("after = %q", v)
	}
}

// TestSnapshotExportInstall takes a state transfer down the path production
// takes. Processes 0 and 1 are the live fast quorum; endpoint 2 is the test
// standing in for a straggler: it asks replica 0 for its state and hands the
// reply to a detached replica 2 through Handle.
func TestSnapshotExportInstall(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()
	replies := make(chan *smr.CatchupReply, 1)
	c.fab.Attach(2, func(_ consensus.ProcessID, msg consensus.Message) {
		if m, ok := inner(msg).(*smr.CatchupReply); ok {
			select {
			case replies <- m:
			default: // one reply is enough; never block the mesh
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := replicas[0].Put(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}

	replicas[0].Handle(2, &smr.CatchupRequest{From: 0})
	var reply *smr.CatchupReply
	select {
	case reply = <-replies:
	case <-ctx.Done():
		t.Fatal("no catch-up reply")
	}
	fresh := replicas[2]
	fresh.Handle(0, reply)
	if v, ok := fresh.Get("a"); !ok || v != "1" {
		t.Fatalf("restored Get(a) = %q ok=%v", v, ok)
	}
	if fresh.Applied() != replicas[0].Applied() {
		t.Fatalf("applied %d != %d", fresh.Applied(), replicas[0].Applied())
	}
}

func TestCompactKeepsRetainedWindow(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	c.pinLogs() // or the floor follows the peers up to the applied index by itself
	replicas := c.replicas()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	kv := replicas[0]
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	applied := replicas[0].Applied()
	floor := replicas[0].Compact(2)
	if floor != applied-2 {
		t.Fatalf("floor = %d, want %d", floor, applied-2)
	}
	if _, ok := replicas[0].LogValue(floor - 1); ok {
		t.Fatal("compacted slot still in log")
	}
	if _, ok := replicas[0].LogValue(applied - 1); !ok {
		t.Fatal("retained slot missing from log")
	}
	// Compacting backwards is a no-op.
	if got := replicas[0].Compact(100); got != floor {
		t.Fatalf("floor moved backwards: %d", got)
	}
}

// catchupTap sits in front of one process's handler. It loses the Decides of
// the slots in [lo, hi) and, while hold is set, the applied-index gossip; it
// records every catch-up reply it lets through, and how many Status had
// passed when each arrived.
type catchupTap struct {
	lo, hi int
	hold   atomic.Bool

	mu      sync.Mutex
	status  int
	replies []*smr.CatchupReply
	seen    []int // status, as each reply arrived
}

func (c *catchupTap) wrap(h transport.Handler) transport.Handler {
	return func(from consensus.ProcessID, msg consensus.Message) {
		switch m := inner(msg).(type) {
		case *smr.SlotMessage:
			if m.InnerKind == core.KindDecide && c.lo <= m.Slot && m.Slot < c.hi {
				return
			}
		case *shard.Status:
			if c.hold.Load() {
				return
			}
			c.mu.Lock()
			c.status++
			c.mu.Unlock()
		case *smr.CatchupReply:
			c.mu.Lock()
			c.replies = append(c.replies, m)
			c.seen = append(c.seen, c.status)
			c.mu.Unlock()
		}
		h(from, msg)
	}
}

func (c *catchupTap) got() ([]*smr.CatchupReply, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.replies), slices.Clone(c.seen)
}

// waitRetired waits until every process has applied want slots and holds
// none of them: each has heard the others say so.
func (c *testCluster) waitRetired(want int) {
	c.t.Helper()
	for i, r := range c.replicas() {
		c.waitApplied(i, want, 5*time.Second)
		for deadline := time.Now().Add(5 * time.Second); r.Info().Retained != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				c.t.Fatalf("process %d still holds %d decided slots", i, r.Info().Retained)
			}
		}
	}
}

// snapshotRecords counts the snapshot records in the journal of a closed
// process under dir: those whose kind, the payload's second byte, is
// slotlog.RecSnap.
func snapshotRecords(t *testing.T, dir string) (n int) {
	t.Helper()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(0, func(_ uint64, p []byte) error {
		if len(p) > 1 && p[1] == slotlog.RecSnap {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCatchupShipsSuffix: a replica that missed k Decides is sent those k
// decided values — one reply, as long as the k commands, with no store in it —
// and adopts them as decisions: nothing is installed and no snapshot is
// journaled. At the parent it was sent the whole store and checkpointed it
// under the lock.
func TestCatchupShipsSuffix(t *testing.T) {
	const k = 10
	base := t.TempDir()
	c := newTestCluster(t, 3, 1, 1, procOptions{dur: durableUnder(base, nil)})
	replicas := c.replicas()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv := replicas[0]
	// Enough keys that a copy of the store would dwarf the suffix.
	big := map[string]string{}
	for i := 0; i < 200; i++ {
		big[fmt.Sprintf("fill%d", i)] = strings.Repeat("x", 100)
	}
	if err := kv.Submit(ctx, batchOf(big)); err != nil {
		t.Fatal(err)
	}
	c.waitRetired(1)
	tap := &catchupTap{lo: 1, hi: 1 + k}
	tap.hold.Store(true) // one Status after the last write: one gap, not several
	c.fab.Attach(2, tap.wrap(c.rts[2].Handler()))
	snapBefore := replicas[2].Info().SnapshotIndex

	size := 0
	for i := 0; i < k; i++ {
		cmd := smr.Command{ID: fmt.Sprintf("p0-%d", 100+i), Op: smr.OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"}
		v, err := cmd.Encode()
		if err != nil {
			t.Fatal(err)
		}
		size += len(v.Data)
		if err := kv.Put(ctx, cmd.Key, cmd.Val); err != nil {
			t.Fatal(err)
		}
	}
	c.waitApplied(1, 1+k, 5*time.Second)
	if got := replicas[2].Applied(); got != 1 {
		t.Fatalf("the replica whose Decides were dropped applied %d slots, want 1", got)
	}
	tap.hold.Store(false)
	c.waitApplied(2, 1+k, 5*time.Second)

	replies, _ := tap.got()
	if len(replies) != 1 {
		t.Fatalf("healed from %d catch-up replies, want 1", len(replies))
	}
	r := replies[0]
	if r.Store != nil || len(r.Decided) != k || r.Applied != 1+k {
		t.Fatalf("reply: applied %d, store %v, %d decided values; want the %d-slot suffix and no store", r.Applied, r.Store != nil, len(r.Decided), k)
	}
	// A slot number, a value key and two length prefixes a slot.
	if n := len(r.AppendBody(nil)); n > size+k*24+16 {
		t.Fatalf("the reply is %d bytes for %d commands of %d bytes", n, k, size)
	}
	info := replicas[2].Info()
	if info.Catchup.Installed != 0 || info.SnapshotIndex != snapBefore {
		t.Fatalf("healing a Decide gap installed %d snapshots and moved the durable one %d -> %d", info.Catchup.Installed, snapBefore, info.SnapshotIndex)
	}
	sent := slotlog.CatchupStats{}
	for _, r := range replicas[:2] {
		st := r.Info().Catchup
		sent.SuffixReplies += st.SuffixReplies
		sent.SnapshotParts += st.SnapshotParts
	}
	if sent.SuffixReplies != 1 || sent.SnapshotParts != 0 {
		t.Fatalf("the peers sent %+v, want one suffix reply between them", sent)
	}
	for i := 0; i < k; i++ {
		if v, ok := replicas[2].Get(fmt.Sprintf("k%d", i)); !ok || v != "v" {
			t.Fatalf("k%d = %q,%t after the suffix", i, v, ok)
		}
	}
	c.close()
	if n := snapshotRecords(t, filepath.Join(base, "r2")); n != 0 {
		t.Fatalf("healing a Decide gap journaled %d snapshot records", n)
	}
}

// TestCatchupSuffixIsChunked: a 1 MiB gap arrives as replies of at most
// 256 KiB of values each, and each reply, carrying the sender's applied index,
// sets off the next request: the chain does not wait for the gossip.
func TestCatchupSuffixIsChunked(t *testing.T) {
	const slots, valueSize, partBytes = 16, 64 << 10, 256 << 10
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := replicas[0]
	// A store bigger than the gap, or the store is what the peers would send.
	if err := kv.Put(ctx, "pad", strings.Repeat("p", 2*valueSize)); err != nil {
		t.Fatal(err)
	}
	c.waitRetired(1)
	// p2 hears nothing, and says what it has applied: the peers keep the gap.
	c.fab.SetFault(func(_, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: to == 2}
	})
	for i := 0; i < slots; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("big%d", i), strings.Repeat("v", valueSize)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitApplied(1, 1+slots, 5*time.Second)
	if info := replicas[0].Info(); info.Retained < slots || info.RetainedBytes < slots*valueSize {
		t.Fatalf("p0 holds %d slots, %d bytes behind a peer that gossips %d applied", info.Retained, info.RetainedBytes, replicas[2].Applied())
	}
	tap := &catchupTap{}
	c.fab.Attach(2, tap.wrap(c.rts[2].Handler()))
	c.fab.SetFault(nil)
	c.waitApplied(2, 1+slots, 10*time.Second)

	replies, seen := tap.got()
	if len(replies) < slots*valueSize/partBytes {
		t.Fatalf("a %d-byte gap arrived in %d replies, want at least %d", slots*valueSize, len(replies), slots*valueSize/partBytes)
	}
	for i, r := range replies {
		if n := len(r.AppendBody(nil)); r.Store != nil || n > partBytes+len(r.Decided)*24+16 {
			t.Fatalf("reply %d: %d bytes, %d slots, store %t; want at most %d of values and no store", i, n, len(r.Decided), r.Store != nil, partBytes)
		}
	}
	// Waiting for the gossip, every part but the first costs a Status.
	if waited := seen[len(seen)-1] - seen[0]; waited >= len(replies)-1 {
		t.Fatalf("%d Status passed between the first and the last of %d replies: the chain waited for the gossip", waited, len(replies))
	}
	for i := 0; i < slots; i++ {
		if v, ok := replicas[2].Get(fmt.Sprintf("big%d", i)); !ok || len(v) != valueSize {
			t.Fatalf("big%d has %d bytes,%t after the suffix", i, len(v), ok)
		}
	}
	if n := replicas[2].Info().Catchup.Installed; n != 0 {
		t.Fatalf("a gap the peers still held installed %d snapshots", n)
	}
}

// TestRetireFollowsPeerApplied: the decided tail a replica keeps follows what
// its peers say they have applied. Under steady writes a healthy group holds
// no more than two gossip periods of slots; a process that dies pins the tail
// at its last word, up to retainSlots and no further; and when it is back and
// caught up the tail falls back.
func TestRetireFollowsPeerApplied(t *testing.T) {
	const period = 5 * 10 * time.Millisecond // a Status every 5Δ, Δ = 10 ticks of 1 ms
	c := newTestCluster(t, 3, 1, 1, procOptions{dur: durableUnder(t.TempDir(), nil)})
	r0 := c.replicas()[0]
	kv := r0
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	type mark struct {
		at      time.Time
		applied int
	}
	var marks []mark
	write := func() {
		t.Helper()
		if err := kv.Put(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{time.Now(), r0.Applied()})
	}
	// twoPeriods is how many slots p0 applied in the last two gossip periods;
	// -1 until the writes span them.
	twoPeriods := func() int {
		last := marks[len(marks)-1]
		for i := len(marks) - 1; i >= 0; i-- {
			if last.at.Sub(marks[i].at) >= 2*period {
				return last.applied - marks[i].applied
			}
		}
		return -1
	}
	// followsPeers keeps writing until every live replica holds no more than
	// two periods of slots (and the chunk or two in flight).
	followsPeers := func(what string, live ...int) {
		t.Helper()
		marks = nil
		for deadline := time.Now().Add(20 * time.Second); ; {
			write()
			bound, worst := twoPeriods(), 0
			for _, i := range live {
				worst = max(worst, c.rts[i].Group(0).Info().Retained)
			}
			if bound >= 0 && worst <= bound+2 {
				t.Logf("%s: %d slots retained, %d decided in two gossip periods", what, worst, bound)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d slots retained under steady writes, %d decided in the last two gossip periods", what, worst, bound)
			}
		}
	}
	followsPeers("healthy", 0, 1, 2)

	c.fab.Attach(2, nil)
	c.rts[2].Kill()
	pinned := 300
	if !testing.Short() {
		pinned = smr.RetainSlots + 200
	}
	for i := 0; i < pinned; i++ {
		write()
	}
	want := min(pinned, smr.RetainSlots)
	if got := r0.Info().Retained; got < want || got > smr.RetainSlots {
		t.Fatalf("%d slots retained after %d writes behind a dead peer, want between %d and %d", got, pinned, want, smr.RetainSlots)
	}

	c.restart(2)
	followsPeers("after the restart", 0, 1, 2)
}

// TestSnapshotPartsAssemble: a snapshot's parts are assembled per sender, in
// order, under one applied index, and installed together on the last; a part
// out of turn or of another cut drops the assembly, and a part 0 starts one.
func TestSnapshotPartsAssemble(t *testing.T) {
	part := func(applied, n, last int, kv ...string) *smr.CatchupReply {
		m := &smr.CatchupReply{Applied: applied, Part: n, Last: last, Store: map[string]string{}}
		for i := 0; i < len(kv); i += 2 {
			m.Store[kv[i]] = kv[i+1]
		}
		return m
	}
	for name, tc := range map[string]struct {
		steps              []func(r *smr.Replica)
		applied, installed int
		store              map[string]string
	}{
		"in order": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 2, "a", "1")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 1, 2, "b", "2")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 2, 2, "c", "3")) },
			},
			applied: 5, installed: 1, store: map[string]string{"a": "1", "b": "2", "c": "3"},
		},
		"nothing before the last part": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 2, "a", "1")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 1, 2, "b", "2")) },
			},
		},
		"another cut's part drops the assembly": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 2, "a", "1")) },
				func(r *smr.Replica) { r.Handle(1, part(6, 1, 2, "b", "2")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 2, 2, "c", "3")) },
			},
		},
		"a lost part's successor drops it": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 2, "a", "1")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 2, 2, "c", "3")) },
			},
		},
		"part 0 starts over": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 1, "stale", "x")) },
				func(r *smr.Replica) { r.Handle(1, part(7, 0, 1, "a", "1")) },
				func(r *smr.Replica) { r.Handle(1, part(7, 1, 1, "b", "2")) },
			},
			applied: 7, installed: 1, store: map[string]string{"a": "1", "b": "2"},
		},
		"one assembly a sender": {
			steps: []func(*smr.Replica){
				func(r *smr.Replica) { r.Handle(1, part(5, 0, 1, "a", "1")) },
				func(r *smr.Replica) { r.Handle(2, part(6, 0, 1, "a", "2")) },
				func(r *smr.Replica) { r.Handle(1, part(5, 1, 1, "b", "1")) },
				func(r *smr.Replica) { r.Handle(2, part(6, 1, 1, "c", "2")) },
			},
			applied: 6, installed: 2, store: map[string]string{"a": "2", "c": "2"},
		},
	} {
		t.Run(name, func(t *testing.T) {
			rt, _ := openIsolated(t, 0, "", nil)
			r := rt.Group(0)
			for _, step := range tc.steps {
				step(r)
			}
			if got := r.Applied(); got != tc.applied {
				t.Fatalf("applied %d, want %d", got, tc.applied)
			}
			for _, k := range []string{"a", "b", "c", "stale"} {
				if v, ok := r.Get(k); v != tc.store[k] || ok != (tc.store[k] != "") {
					t.Fatalf("%s = %q,%t, want %q", k, v, ok, tc.store[k])
				}
			}
			if got := r.Info().Catchup.Installed; got != uint64(tc.installed) {
				t.Fatalf("installed %d snapshots, want %d", got, tc.installed)
			}
		})
	}
}

// TestRetainedBytesBoundTheTail: behind peers that say nothing the decided
// tail is bounded in bytes as well as in slots. 256 KiB values pass 16 MiB
// long before 4096 slots: the floor rises under them, a request from below
// it is answered with the store in parts, one from above it with a suffix —
// until the store is the smaller of the two, and is sent instead.
func TestRetainedBytesBoundTheTail(t *testing.T) {
	const valueSize = 256 << 10
	slots := smr.RetainBytes/valueSize + 6
	rt, tr := openIsolated(t, 2, "", nil)
	r := rt.Group(0)
	decide := func(n int, cmd smr.Command) {
		t.Helper()
		cmd.ID = fmt.Sprintf("p1-%d", n)
		v, err := cmd.Encode()
		if err != nil {
			t.Fatal(err)
		}
		r.Handle(1, slotMsg(t, n, &core.DecideMsg{Value: v}))
	}
	for n := 0; n < slots; n++ {
		decide(n, smr.Command{Op: smr.OpPut, Key: fmt.Sprintf("big%d", n), Val: strings.Repeat("v", valueSize)})
		if info := r.Info(); info.RetainedBytes > smr.RetainBytes || info.Retained != info.Applied-info.CompactFloor {
			t.Fatalf("after slot %d: %+v, want at most %d bytes held and every slot from the floor up", n, info, smr.RetainBytes)
		}
	}
	info := r.Info()
	if info.Applied != slots || info.CompactFloor == 0 || info.RetainedBytes < smr.RetainBytes-2*valueSize {
		t.Fatalf("%+v after %d slots of %d bytes: the floor should have risen just far enough", info, slots, valueSize)
	}
	replies := func(from int) (out []*smr.CatchupReply) {
		tr.mu.Lock()
		tr.sent = nil
		tr.mu.Unlock()
		r.Handle(1, &smr.CatchupRequest{From: from})
		r.SyncIO()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, s := range tr.sent {
			out = append(out, s.msg.(*smr.CatchupReply))
		}
		return out
	}
	// A pair past the budget rides alone: one part a key.
	isStore := func(got []*smr.CatchupReply, keys int) bool {
		for i, m := range got {
			if len(m.Store) != 1 || m.Part != i || m.Last != keys-1 || m.Applied != r.Applied() {
				return false
			}
		}
		return len(got) == keys
	}
	if got := replies(info.CompactFloor - 1); !isStore(got, slots) {
		t.Fatalf("a request below the floor was answered with %d replies, want the store in %d parts", len(got), slots)
	}
	if got := replies(info.CompactFloor); len(got) != 1 || got[0].Store != nil || len(got[0].Decided) != 1 {
		t.Fatalf("a request at the floor was answered with %d replies, want one suffix of one oversize slot", len(got))
	}
	// Deletes shrink the store under the tail: the store is the cheaper answer.
	const deletes = 10
	for n := 0; n < deletes; n++ {
		decide(slots+n, smr.Command{Op: smr.OpDelete, Key: fmt.Sprintf("big%d", n)})
	}
	if got := replies(r.Info().CompactFloor); !isStore(got, slots-deletes) {
		t.Fatalf("a request at the floor of a tail bigger than the store was answered with %d replies, want the store in %d parts", len(got), slots-deletes)
	}
}

// TestOneRequestPerGap: however many peers gossip a higher index, one request
// is out at a time, to the peer that reported the most. Its reply clears it;
// so does a period's worth of gossip without one, after which the silent
// peer's last word no longer counts. At the parent every Status from every
// peer ahead cost a request and a copy of the store.
func TestOneRequestPerGap(t *testing.T) {
	rt, tr := openIsolated(t, 0, "", nil)
	r := rt.Group(0)
	asked := func() (to []consensus.ProcessID) {
		r.SyncIO()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, s := range tr.sent {
			if _, ok := s.msg.(*smr.CatchupRequest); ok {
				to = append(to, s.to)
			}
		}
		return to
	}
	for _, step := range []struct {
		what string
		do   func()
		want []consensus.ProcessID
	}{
		{"the first peer ahead is asked", func() { r.NoteApplied(1, 10) }, []consensus.ProcessID{1}},
		{"a second peer ahead, with a request out, is not", func() { r.NoteApplied(2, 12) }, []consensus.ProcessID{1}},
		{"a period of gossip and no reply: the one that reported the most is asked", func() { r.NoteApplied(1, 10) }, []consensus.ProcessID{1, 2}},
		{"nothing while that one is out", func() { r.NoteApplied(1, 11) }, []consensus.ProcessID{1, 2}},
		{"its reply clears it", func() { r.Handle(2, &smr.CatchupReply{Applied: 12}); r.NoteApplied(1, 11) }, []consensus.ProcessID{1, 2, 2}},
	} {
		if step.do(); !slices.Equal(asked(), step.want) {
			t.Fatalf("%s: requests went to %v, want %v", step.what, asked(), step.want)
		}
	}
}

// TestInstallSendsNothingBeforeItsSnapshotIsDurable: a snapshot install
// jumps the store with no journal record behind it, so the snapshot the
// replica journals right after it is critical. With the fsync stalled, the
// replica installs a peer's cut and is then asked, below its new floor, for
// state it only has from that cut: its answer waits for the snapshot's
// commit, and leaves once the fsync is released.
func TestInstallSendsNothingBeforeItsSnapshotIsDurable(t *testing.T) {
	var stall atomic.Bool
	release, stalled := make(chan struct{}), make(chan struct{}, 1)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	hook := func() {
		if stall.Load() {
			select {
			case stalled <- struct{}{}:
			default:
			}
			<-release
		}
	}
	rt, err := shard.New(shard.Options{
		Groups:     1,
		Config:     consensus.Config{ID: 2, N: 3, F: 1, E: 1, Delta: 10},
		Tick:       time.Millisecond,
		Durability: &shard.Durability{Dir: t.TempDir(), SyncHook: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTr{self: 2}
	rt.BindTransport(tr)
	defer func() { unblock(); rt.Close() }() // a stalled consumer cannot drain
	r := rt.Group(0)
	sent := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.sent)
	}

	stall.Store(true)
	r.Handle(0, &smr.CatchupReply{Applied: 5, Store: map[string]string{"k": "v"}})
	if r.Applied() != 5 {
		t.Fatalf("applied %d after the cut, want 5", r.Applied())
	}
	r.Handle(1, slotMsg(t, 0, &core.OneA{Ballot: 1}))
	time.Sleep(50 * time.Millisecond) // room to leak
	if n := sent(); n != 0 {
		t.Fatalf("%d messages left before the snapshot backing the install was durable", n)
	}
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("nothing committed the installed snapshot")
	}

	unblock()
	r.SyncIO()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.sent) != 1 || tr.sent[0].to != 1 {
		t.Fatalf("sent %+v once the fsync was released, want the cut to process 1", tr.sent)
	}
	if c, ok := tr.sent[0].msg.(*smr.CatchupReply); !ok || c.Applied != 5 || c.Store["k"] != "v" {
		t.Fatalf("answered slot 0 below the floor with %+v, want the installed cut", tr.sent[0].msg)
	}
}
