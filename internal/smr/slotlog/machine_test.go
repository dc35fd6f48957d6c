package slotlog

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/lease"
)

// newTestMachine is process self's machine in a group of three, with leases
// of one second and an ε of 10 ms.
func newTestMachine(self int) *kvMachine {
	return &kvMachine{n: 3, store: map[string]string{}, leases: lease.New(lease.Config{
		Self: self, Duration: time.Second.Nanoseconds(), Epsilon: (10 * time.Millisecond).Nanoseconds(),
	})}
}

func mustEncode(t *testing.T, c Command) consensus.Value {
	t.Helper()
	v, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// grant is process h's grant of a one-second lease.
func grant(t *testing.T, h, seq int) consensus.Value {
	return mustEncode(t, Command{ID: fmt.Sprintf("p%d-%d", h, seq), Op: OpLeaseGrant, Key: strconv.Itoa(h), Val: strconv.FormatInt(time.Second.Nanoseconds(), 10)})
}

// The store moves slot by slot, and weighs its keys and values through
// overwrites, deletes, batches and no-ops.
func TestMachineAppliesInSlotOrder(t *testing.T) {
	m := &kvMachine{n: 3, store: map[string]string{}}
	for i, tc := range []struct {
		cmd   Command
		store map[string]string
	}{
		{Command{ID: "p1-1", Op: OpPut, Key: "a", Val: "1"}, map[string]string{"a": "1"}},
		{Command{ID: "p1-2", Op: OpPut, Key: "a", Val: "long"}, map[string]string{"a": "long"}},
		{Command{ID: "p2-1", Op: OpNoop}, map[string]string{"a": "long"}},
		{Command{ID: "p0-batch-1", Op: OpBatch, Subs: []Command{
			{ID: "p0-1", Op: OpPut, Key: "b", Val: "2"},
			{ID: "p0-2", Op: OpDelete, Key: "a"},
			{ID: "p0-3", Op: OpPut, Key: "c", Val: "33"},
		}}, map[string]string{"b": "2", "c": "33"}},
		{Command{ID: "p1-3", Op: OpDelete, Key: "absent"}, map[string]string{"b": "2", "c": "33"}},
		{Command{ID: "p1-4", Op: OpDelete, Key: "c"}, map[string]string{"b": "2"}},
	} {
		if ev := m.apply(mustEncode(t, tc.cmd), 0); ev != (lease.Event{}) {
			t.Fatalf("slot %d: a lease-free machine reported %+v", i, ev)
		}
		weight := 0
		for k, v := range tc.store {
			weight += len(k) + len(v)
		}
		if m.applied != i+1 || !maps.Equal(m.store, tc.store) || m.bytes() != weight {
			t.Fatalf("after slot %d: applied %d, store %v of %d bytes; want %d, %v of %d", i, m.applied, m.store, m.bytes(), i+1, tc.store, weight)
		}
	}
	if v, ok := m.get("b"); !ok || v != "2" {
		t.Fatalf("get(b) = %q,%t", v, ok)
	}
	if _, ok := m.get("a"); ok {
		t.Fatal("a deleted key reads back")
	}
}

// A grant to another process guards it; a command this process proposed
// under that guard applies, revokes the grant, and comes back fenced. One from
// a third process revokes without a verdict for anybody here.
func TestMachineFencesOwnCommandUnderForeignGrant(t *testing.T) {
	m := newTestMachine(0)
	now := time.Second.Nanoseconds()
	if ev := m.apply(grant(t, 1, 1), now); !ev.Granted || ev.Fenced || m.leases.Holder() != 1 || !m.leases.Guarded(now) {
		t.Fatalf("grant to p1: %+v, holder %d", ev, m.leases.Holder())
	}
	ev := m.apply(mustEncode(t, Command{ID: "p0-7", Op: OpPut, Key: "k", Val: "v"}), now+1)
	if !ev.Fenced || !ev.Revoked {
		t.Fatalf("own write under p1's guard: %+v, want fenced and revoking", ev)
	}
	if v, _ := m.get("k"); v != "v" {
		t.Fatal("a fenced command must still apply")
	}
	m.apply(grant(t, 1, 2), now+2)
	if ev := m.apply(mustEncode(t, Command{ID: "p2-1", Op: OpNoop}), now+3); ev.Fenced || !ev.Revoked {
		t.Fatalf("p2's no-op under p1's grant: %+v, want revoking, not fenced", ev)
	}
	// A grant naming no member of the group is not let into the table.
	if ev := m.apply(grant(t, 3, 1), now+4); ev != (lease.Event{}) || m.leases.Holder() != -1 || m.applied != 5 {
		t.Fatalf("grant to p3 of 3: %+v, holder %d, applied %d", ev, m.leases.Holder(), m.applied)
	}
}

// A value that does not decode still takes its slot and revokes the holder:
// an unknown proposer must not leave a lease looking live.
func TestMachineMalformedValueRevokes(t *testing.T) {
	m := newTestMachine(0)
	m.apply(grant(t, 1, 1), 1)
	ev := m.apply(consensus.Value{Key: 7, Data: "\xffnot a command"}, 2)
	if !ev.Revoked || ev.Fenced || m.leases.Holder() != -1 || m.applied != 2 || len(m.store) != 0 {
		t.Fatalf("malformed value: %+v, holder %d, applied %d, store %v", ev, m.leases.Holder(), m.applied, m.store)
	}
}

// A cut of a store three times partBytes arrives in parts, each within the
// bound once encoded, the last with the lease view and the open decisions; a
// machine that installs them holds the same store, the same weight and a
// guard for the same holder.
func TestMachineCutInstallsAcrossParts(t *testing.T) {
	from := newTestMachine(0)
	for i := 0; i < 3*partBytes/(4<<10); i++ {
		from.apply(mustEncode(t, Command{ID: fmt.Sprintf("p1-%d", i), Op: OpPut, Key: fmt.Sprintf("k%04d", i), Val: strings.Repeat("v", 4<<10)}), 0)
	}
	now := time.Second.Nanoseconds()
	from.apply(grant(t, 1, 1000), now)
	open := map[int]consensus.Value{from.applied + 1: grant(t, 2, 1)}

	parts := from.cut(partBytes, now, open)
	if len(parts) < 3 {
		t.Fatalf("a store of %d bytes in %d parts", from.bytes(), len(parts))
	}
	var wire []*CatchupReply
	for i, p := range parts {
		body := p.AppendBody(nil)
		if p.Part != i || p.Last != len(parts)-1 || p.Applied != from.applied || len(body) > partBytes+len(p.Store)*8+64 {
			t.Fatalf("part %d: %d/%d of applied %d, %d bytes", i, p.Part, p.Last, p.Applied, len(body))
		}
		if last := i == len(parts)-1; last != (p.LeaseHolder != nil) || last != (len(p.Decided) == 1) {
			t.Fatalf("part %d of %d: lease view %v, %d decisions", i, len(parts), p.LeaseHolder, len(p.Decided))
		}
		got := &CatchupReply{}
		if err := got.DecodeBody(body); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, got)
	}

	to := newTestMachine(2)
	later := 5 * time.Second.Nanoseconds()
	to.install(later, wire...)
	if to.applied != from.applied || !maps.Equal(to.store, from.store) || to.bytes() != from.bytes() {
		t.Fatalf("installed applied %d, %d keys of %d bytes; want %d, %d of %d", to.applied, len(to.store), to.bytes(), from.applied, len(from.store), from.bytes())
	}
	if to.leases.Holder() != 1 || to.leases.GuardHolder() != 1 || !to.leases.Guarded(later+time.Second.Nanoseconds()/2) {
		t.Fatalf("installed lease view: holder %d, guard %d", to.leases.Holder(), to.leases.GuardHolder())
	}

}

// Under the stale-read fault a key reads back as it was before its last
// overwrite; the store itself moves on.
func TestMachineStaleReadFault(t *testing.T) {
	m := &kvMachine{n: 3, store: map[string]string{}}
	put := func(k, v string) { m.apply(mustEncode(t, Command{ID: "p0-1", Op: OpPut, Key: k, Val: v}), 0) }
	put("k", "old")
	m.injectStaleReads()
	put("k", "new")
	put("once", "only")
	if v, _ := m.get("k"); v != "old" {
		t.Fatalf("get(k) = %q under the fault, want the overwritten value", v)
	}
	if v, _ := m.get("once"); v != "only" || m.store["k"] != "new" {
		t.Fatalf("get(once) = %q, store %v", v, m.store)
	}
}
