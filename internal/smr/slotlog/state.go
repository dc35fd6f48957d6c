package slotlog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lease"
)

// journal keys the assembly of a snapshot read back from the journal among
// the peers' (catchupState.partial): no peer has its id.
const journal consensus.ProcessID = -1

// recover takes in one journal record: a slot's last state wins, a decision
// is learned, a snapshot's part joins its run, and the sequence moves past any
// ID of this replica's in it, so no command of a previous life shares an ID
// with a new one.
func (l *Log) recover(rec Record) {
	v := rec.Val
	switch rec.Kind {
	case RecSnap:
		if parts := l.assemble(journal, &rec.Snap.Cut); parts != nil {
			l.restore(parts, rec.Snap)
		}
		return
	case RecState:
		l.restored[rec.Slot], v = rec.State, rec.State.InitialVal
	default:
		l.learn(l.slot(rec.Slot), v)
	}
	cmd, _ := DecodeCommand(v) // Command{} if v is none: no ID
	for _, c := range append([]Command{cmd}, cmd.Subs...) {
		if proposerOf(c.ID) == int(l.cfg.ID) {
			seq, _ := strconv.ParseInt(c.ID[strings.LastIndexByte(c.ID, '-')+1:], 10, 64)
			l.seq = max(l.seq, seq)
		}
	}
}

// restore resets the log to a snapshot read back whole, last its last part's
// record: what the journal held before it is superseded (and below its
// applied index, retired by Open).
func (l *Log) restore(parts []*CatchupReply, last *Snapshot) {
	l.m.install(l.now, parts...)
	l.seq, l.snapAt = max(l.seq, last.Seq), l.m.applied
	for _, n := range sortedKeys(last.Cut.Decided) {
		if n >= l.m.applied {
			l.learn(l.slot(n), last.Cut.Decided[n])
		}
	}
	for n, st := range last.Slots {
		if n >= l.m.applied {
			l.restored[n] = st
		}
	}
}

// open ends recovery: it re-applies the decided commands, retires every slot
// below the applied index — never to re-enter one with an amnesiac instance —
// and restarts the undecided slots' instances, promises intact (a decided slot
// stays a value). Every state is restored before any instance starts and
// arms its timer, so a refused one leaves no timer behind.
func (l *Log) open() {
	l.applyReady()
	l.retireBelow(l.m.applied)
	var open []*slot
	for _, n := range sortedKeys(l.restored) {
		if n < l.m.applied || l.decided(n) {
			continue
		}
		s := l.slot(n)
		s.node = core.NewUnchecked(l.cfg, core.ModeObject, core.DefaultOptions(), &l.omega)
		if err := s.node.Restore(l.restored[n]); err != nil {
			l.eff.Err = fmt.Errorf("smr durability: slot %d: %w", n, err)
			return
		}
		s.persisted = l.restored[n]
		open = append(open, s)
	}
	for _, s := range open {
		l.interpret(s, s.node.Start())
	}
	l.restored, l.sinceSnap, l.snapDue = nil, 0, false
	delete(l.cu.partial, journal) // a torn snapshot: the journal ended inside it
}

// Applied is the number of slots applied to the store.
func (l *Log) Applied() int { return l.m.applied }

// Halted reports whether the log took Halt.
func (l *Log) Halted() bool { return l.halted }

// Seq is the last command sequence number the log handed out.
func (l *Log) Seq() int64 { return l.seq }

// Value is slot n's decision, if this log holds it (retired slots do not).
func (l *Log) Value(n int) (consensus.Value, bool) {
	if s := l.slots[n]; s != nil && s.decided {
		return s.val, true
	}
	return consensus.Value{}, false
}

// Deadline is when slot n's timer fires, on the input clock (0: not armed).
func (l *Log) Deadline(n int) int64 { return l.timed[n] }

// Get reads key as of the applied index.
func (l *Log) Get(key string) (string, bool) { return l.m.get(key) }

// InjectStaleReads switches the machine's stale-read fault on.
func (l *Log) InjectStaleReads() { l.m.injectStaleReads() }

// Info is the log's part of a replica's operational summary.
type Info struct {
	Applied      int `json:"applied"`
	OpenSlots    int `json:"openSlots"`
	CompactFloor int `json:"compactFloor"`
	// Retained counts the decided slot records held for lagging peers.
	Retained      int          `json:"retained"`
	RetainedBytes int          `json:"retainedBytes"`
	Catchup       CatchupStats `json:"catchup"`
	SnapshotIndex int          `json:"snapshotIndex,omitempty"` // the newest snapshot's applied index
	Timeouts      uint64       `json:"timeouts"`                // fires that ran an undecided instance's Tick
}

// Info reports the log's applied index, open slots, retention and snapshot.
func (l *Log) Info() Info {
	info := Info{Applied: l.m.applied, CompactFloor: l.floor, RetainedBytes: l.retained, Catchup: l.cu.stats, SnapshotIndex: l.snapAt, Timeouts: l.timeouts}
	for n, s := range l.slots {
		if s.decided {
			info.Retained++
		} else if s.node != nil && n >= l.m.applied {
			info.OpenSlots++
		}
	}
	return info
}

// LeaseRead reads key if this replica holds a valid lease at now.
func (l *Log) LeaseRead(now int64, key string) (val string, ok, served bool) {
	if l.halted || l.lease(now) == nil {
		return "", false, false
	}
	if !l.m.leases.HolderValid(now) {
		l.leases.Misses++
		return "", false, false
	}
	l.leases.Hits++
	val, ok = l.m.get(key)
	return val, ok, true
}

// WantsGrant reports whether a grant proposed at now would be worth it: this
// replica's lease has less than ahead left, or nobody's guard stands.
func (l *Log) WantsGrant(now, ahead int64) bool {
	if t := l.lease(now); t.HolderValid(now) {
		return t.Remaining(now) < ahead
	}
	return !l.m.leases.Guarded(now)
}

// lease is the lease table, its own lease's expiry checked at now; nil
// without leases.
func (l *Log) lease(now int64) *lease.Table {
	if t := l.m.leases; t != nil && t.ExpireCheck(now) {
		l.leases.Expired++
	}
	return l.m.leases
}

// LeaseStats is a point-in-time snapshot of the lease and read-path
// counters, surfaced through STATS and expvar: whether the replica has leases
// and holds a live one, the applied-log holder (-1: none), GETLs served from
// the lease and fallen back, own-lease expiries, applied revocations (a
// command from a non-holder) and grants, commands refused before proposing
// under a foreign lease, and commands applied but downgraded to ambiguous.
type LeaseStats struct {
	Enabled bool   `json:"enabled"`
	Valid   bool   `json:"valid"`
	Holder  int    `json:"holder"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Expired uint64 `json:"expired"`
	Revoked uint64 `json:"revoked"`
	Grants  uint64 `json:"grants"`
	Refused uint64 `json:"refused"`
	Fenced  uint64 `json:"fenced"`
}

// String renders the snapshot in the STATS line's key=value idiom.
func (st LeaseStats) String() string {
	return fmt.Sprintf(
		"lease_valid=%t lease_holder=%d lease_hits=%d lease_misses=%d lease_expired=%d lease_revoked=%d lease_grants=%d lease_refused=%d lease_fenced=%d",
		st.Valid, st.Holder, st.Hits, st.Misses, st.Expired, st.Revoked,
		st.Grants, st.Refused, st.Fenced)
}

// count adds what applying a command did to the lease table to the counters.
func (st *LeaseStats) count(ev lease.Event) {
	if ev.Granted {
		st.Grants++
	}
	if ev.Revoked {
		st.Revoked++
	}
	if ev.Fenced {
		st.Fenced++
	}
}

// LeaseStats snapshots the lease counters at now.
func (l *Log) LeaseStats(now int64) LeaseStats {
	st := l.leases
	st.Holder = -1
	if t := l.m.leases; t != nil {
		st.Enabled, st.Valid, st.Holder = true, t.HolderValid(now), t.Holder()
	}
	return st
}
