package slotlog

import (
	"maps"
	"strconv"

	"repro/internal/consensus"
	"repro/internal/lease"
)

// kvMachine is the replicated state machine a group's log drives: the
// key-value store as of the applied index, what it weighs and — with leases on
// — the lease table the same commands run through. The Log keeps the slots in
// order and hands it their decided values, and the clock's reading.
type kvMachine struct {
	n          int // the group's size: a grant naming no member is malformed
	applied    int // slots applied; apply takes slot applied's value next
	store      map[string]string
	storeBytes int          // the keys and values in store
	leases     *lease.Table // nil without leases
	// stale, once non-nil, maps each overwritten key to its previous value,
	// which get serves: the chaos harness's "teeth" fault (FaultInjectStaleReads).
	stale map[string]string
}

// apply applies v, the decided value of slot applied, to the store and the
// lease table, and moves past it. The event is what it did to the table, and
// Fenced its waiters' verdict: this replica proposed it inside a foreign
// lease's guard. A value that does not decode is a no-op that still revokes
// conservatively — an unknown proposer must not leave a lease looking live —
// and a malformed grant is ignored rather than let into the table.
func (m *kvMachine) apply(v consensus.Value, now int64) lease.Event {
	m.applied++
	cmd, _ := DecodeCommand(v) // Command{} if not: no op, no proposer
	m.write(cmd)
	switch {
	case m.leases == nil:
		return lease.Event{}
	case cmd.Op != OpLeaseGrant:
		return m.leases.ApplyCommand(proposerOf(cmd.ID), now)
	}
	h, errH := strconv.Atoi(cmd.Key)
	dur, errD := strconv.ParseInt(cmd.Val, 10, 64)
	if errH != nil || errD != nil || h < 0 || h >= m.n || dur <= 0 {
		return lease.Event{}
	}
	return m.leases.ApplyGrant(h, cmd.ID, dur, now)
}

// write applies cmd to the store, a batch's commands in order.
func (m *kvMachine) write(cmd Command) {
	switch cmd.Op {
	case OpPut, OpDelete:
		old, had := m.store[cmd.Key]
		if had {
			m.storeBytes -= len(cmd.Key) + len(old)
		}
		if cmd.Op == OpDelete {
			delete(m.store, cmd.Key)
			break
		}
		if m.stale != nil && had && old != cmd.Val {
			m.stale[cmd.Key] = old
		}
		m.store[cmd.Key] = cmd.Val
		m.storeBytes += len(cmd.Key) + len(cmd.Val)
	case OpBatch:
		for _, sub := range cmd.Subs {
			m.write(sub)
		}
	}
}

// get reads key as of the applied index — under the stale-read fault, as of
// before its last overwrite.
func (m *kvMachine) get(key string) (string, bool) {
	if v, ok := m.stale[key]; ok {
		return v, true
	}
	v, ok := m.store[key]
	return v, ok
}

// injectStaleReads switches the stale-read fault on.
func (m *kvMachine) injectStaleReads() {
	if m.stale == nil {
		m.stale = make(map[string]string)
	}
}

// bytes is what the store weighs: its keys and values.
func (m *kvMachine) bytes() int { return m.storeBytes }

// cut is the machine as of its applied index in parts of at most limit bytes
// of keys and values (a pair past it rides alone). The last part also carries
// the lease view and, while it has room, decided: the values of slots above
// the applied index the caller knows.
func (m *kvMachine) cut(limit int, now int64, decided map[int]consensus.Value) []*CatchupReply {
	last := &CatchupReply{Applied: m.applied, Store: make(map[string]string)}
	parts := []*CatchupReply{last}
	size := 0
	for _, k := range sortedKeys(m.store) {
		v := m.store[k]
		if size += len(k) + len(v); size > limit && len(last.Store) > 0 {
			last, size = &CatchupReply{Applied: m.applied, Part: len(parts), Store: make(map[string]string)}, len(k)+len(v)
			parts = append(parts, last)
		}
		last.Store[k] = v
	}
	if m.leases != nil {
		// A duration, which survives the change of clock origin: imported at
		// any later instant it only shortens the true residual window.
		if h, remain := m.leases.Export(now); h >= 0 && remain > 0 {
			last.LeaseHolder, last.LeaseRemain = &h, remain
		}
	}
	last.Decided = make(map[int]consensus.Value, len(decided))
	for _, n := range sortedKeys(decided) {
		if size += len(decided[n].Data); size > limit {
			break
		}
		last.Decided[n] = decided[n]
	}
	for _, p := range parts {
		p.Last = len(parts) - 1
	}
	return parts
}

// install makes a cut, its parts in order, the machine's state: the store they
// hold together, their applied index and the last one's lease view, imported
// at now. It takes the parts' maps rather than copying them: a delivered cut
// belongs to its receiver.
func (m *kvMachine) install(now int64, parts ...*CatchupReply) {
	last := parts[len(parts)-1]
	m.store, m.applied, m.storeBytes = parts[0].Store, last.Applied, 0
	for _, p := range parts[1:] {
		maps.Copy(m.store, p.Store)
	}
	for k, v := range m.store {
		m.storeBytes += len(k) + len(v)
	}
	if m.leases != nil && last.LeaseHolder != nil {
		m.leases.Import(*last.LeaseHolder, last.LeaseRemain, now)
	}
}
