// Package lease implements the deterministic state machine behind
// time-bounded leader leases for linearizable local reads.
//
// A lease is granted through consensus itself: the holder replicates an
// ordinary lease-grant command, and every replica applies it in log order
// like any write. While the holder's lease is valid it may answer
// linearizable reads from its local applied state with zero network round
// trips; every other replica refuses to acknowledge commands it proposes
// itself until the lease has conservatively expired, so no write can be
// acknowledged that the holder might not have applied.
//
// The package is deliberately host-free: it never reads a clock, spawns a
// goroutine, or touches the network. Every method takes `now`, a reading
// of the host's monotonic clock in nanoseconds (each replica measures
// durations against its own arbitrary origin — absolute values are never
// compared across replicas, only durations, which monotonic clocks measure
// faithfully up to rate drift; the ε margin absorbs that drift). This
// keeps the lease rules replayable in tests and under the determinism
// analyzer.
//
// Safety margins (why the holder's window is shorter than everyone
// else's): for a grant of length D proposed by H at local time t0,
//
//	H serves reads   during [t0 .. t0+D-ε)        (its own clock)
//	replica B blocks during [apply_B .. apply_B+D+ε)  (B's clock)
//
// Since the grant cannot apply anywhere before H proposed it,
// apply_B >= t0 in real time, so B's conservative window strictly covers
// H's serving window with 2ε of slack for clock-rate drift between the
// two monotonic clocks. Setting ε = 0 (Config.Unsafe) removes both the
// margin and the guard — the teeth-test mode that provably serves stale
// reads under partition.
package lease

// Config fixes a replica's identity and the safety margins.
type Config struct {
	// Self is this replica's process ID.
	Self int
	// Duration is the default grant length in nanoseconds. Grants carry
	// their own duration on the wire; this is what the holder proposes.
	Duration int64
	// Epsilon is the clock-skew safety margin in nanoseconds. The holder
	// stops serving ε before nominal expiry; everyone else keeps blocking
	// ε after it.
	Epsilon int64
	// Unsafe disables the margin, the guard window, and fencing — the
	// deliberately broken ε=0 mode used to prove the linearizability
	// checker catches stale lease reads. Never enable outside tests.
	Unsafe bool
}

// Event reports what applying a command did to the lease table.
type Event struct {
	// Granted: a lease-grant took effect (Holder says for whom).
	Granted bool
	// Holder is the grantee when Granted is set.
	Holder int
	// Revoked: a previously recorded lease was revoked by a command from
	// a different proposer.
	Revoked bool
	// Fenced: the applied command was proposed by this replica while a
	// foreign lease was still conservatively live. Its effect is applied
	// (log order is law) but it must not be acknowledged as a definite
	// success: the holder may have served reads that missed it.
	Fenced bool
}

// Table is one replica's view of the group's lease. All methods are
// single-threaded (the caller holds the replica lock) and deterministic
// given the sequence of calls and `now` values.
type Table struct {
	cfg Config

	// holder is the grantee of the most recent applied, unrevoked grant
	// (-1 if none). Tracked from the log alone, so it is identical on
	// every replica at equal applied index.
	holder int

	// guardHolder / guardUntil implement the conservative window during
	// which a *foreign* replica may still be serving reads. guardUntil is
	// only ever raised: revocation of the holder does not lower it,
	// because a revoked holder may not have applied the revoking command
	// yet and could still be serving.
	guardHolder int
	guardUntil  int64

	// Own serving window. Valid only when this replica proposed the grant
	// itself in this process lifetime (pending matched): a replayed or
	// snapshot-imported own grant never confers serving rights.
	ownValid  bool
	ownFrom   int64
	ownExpiry int64

	// pending maps command IDs of our own in-flight grant proposals to
	// the local time at which they were proposed. The propose-time lower
	// bound is what makes self-expiry safe: the grant cannot have applied
	// anywhere earlier than we proposed it.
	pending map[string]int64
}

// New builds an empty table; no lease is held and nothing is guarded.
func New(cfg Config) *Table {
	if cfg.Unsafe {
		cfg.Epsilon = 0
	}
	return &Table{
		cfg:         cfg,
		holder:      -1,
		guardHolder: -1,
		pending:     make(map[string]int64),
	}
}

// NoteProposed records that this replica proposed a grant command with the
// given ID at local time now. Must be called before the command is handed
// to consensus, so the recorded time lower-bounds every replica's apply
// time.
func (t *Table) NoteProposed(id string, now int64) {
	t.pending[id] = now
}

// DropProposed forgets a proposal that errored out. If the grant decides
// anyway, it will apply without a pending entry and confer no serving
// rights — conservative, never unsafe.
func (t *Table) DropProposed(id string) {
	delete(t.pending, id)
}

// ApplyGrant applies a replicated lease-grant for holder h with length
// dur, identified by the command ID id, at local time now.
func (t *Table) ApplyGrant(h int, id string, dur, now int64) Event {
	ev := Event{Granted: true, Holder: h}
	if t.holder >= 0 && t.holder != h {
		ev.Revoked = true
	}
	t.holder = h
	if h != t.cfg.Self {
		// Someone else holds the lease: raise the conservative window.
		// We block our own proposals (and local reads) until it lapses.
		t.guardHolder = h
		t.guardUntil = max(t.guardUntil, now+dur+t.cfg.Epsilon)
		t.ownValid = false
		return ev
	}
	t0, ok := t.pending[id]
	if !ok {
		// Our own grant replayed from the WAL or adopted via catchup
		// after a restart: the propose-time anchor is gone, so we get no
		// serving window. Holding the record still matters (a later
		// foreign command revokes it), but crash-restart forgets leases.
		t.ownValid = false
		return ev
	}
	delete(t.pending, id)
	t.ownValid = true
	t.ownFrom = t0
	if !t.cfg.Unsafe && t.guardUntil > t.ownFrom {
		// Taking over from a previous holder: it may serve until the
		// guard lapses, so our own window must not start before then.
		t.ownFrom = t.guardUntil
	}
	t.ownExpiry = t0 + dur - t.cfg.Epsilon
	return ev
}

// ApplyCommand applies any non-grant command from the given proposer
// (-1 if unknown) at local time now. A command from anyone but the
// current holder revokes the lease; a command we proposed ourselves while
// a foreign guard is still live is flagged Fenced.
func (t *Table) ApplyCommand(proposer int, now int64) Event {
	var ev Event
	if !t.cfg.Unsafe && proposer == t.cfg.Self && now < t.guardUntil && !t.HolderValid(now) {
		ev.Fenced = true
	}
	if t.holder >= 0 && proposer != t.holder {
		// Revoke — but never lower guardUntil: the deposed holder may
		// not have applied this command yet and could still be serving.
		t.holder = -1
		t.ownValid = false
		ev.Revoked = true
	}
	return ev
}

// HolderValid reports whether this replica may serve a linearizable read
// from local applied state right now.
func (t *Table) HolderValid(now int64) bool {
	return t.ownValid && t.holder == t.cfg.Self && t.ownFrom <= now && now < t.ownExpiry
}

// ExpireCheck retires an expired own lease and reports whether it just
// did so (one-shot, for expiry counters).
func (t *Table) ExpireCheck(now int64) bool {
	if t.ownValid && now >= t.ownExpiry {
		t.ownValid = false
		return true
	}
	return false
}

// Guarded reports whether a foreign lease is conservatively live, i.e.
// this replica must not acknowledge commands it proposes itself (and must
// not serve local reads).
func (t *Table) Guarded(now int64) bool {
	return !t.cfg.Unsafe && now < t.guardUntil && !t.HolderValid(now)
}

// GuardHolder is the replica to redirect to while Guarded (-1 if none
// ever was). It survives revocation deliberately: a just-revoked holder
// is still the best hint until the guard lapses.
func (t *Table) GuardHolder() int { return t.guardHolder }

// Holder is the applied-log holder (-1 if none / revoked).
func (t *Table) Holder() int { return t.holder }

// Remaining is how much of our own serving window is left (0 when not
// valid).
func (t *Table) Remaining(now int64) int64 {
	if !t.HolderValid(now) {
		return 0
	}
	return t.ownExpiry - now
}

// Export summarizes the lease for a snapshot or catchup reply as
// (holder, remaining-duration). Durations are clock-origin-free, so the
// pair is meaningful on another replica's clock: importing at any later
// real time and guarding for `remain` strictly covers the exporter's
// window. Our own valid lease exports with 2ε slack (we serve until
// ownExpiry; the importer must block past that plus drift).
func (t *Table) Export(now int64) (holder int, remain int64) {
	if t.HolderValid(now) {
		return t.cfg.Self, t.ownExpiry - now + 2*t.cfg.Epsilon
	}
	if t.guardUntil > now {
		return t.guardHolder, t.guardUntil - now
	}
	return -1, 0
}

// Import adopts an exported (holder, remain) pair at local time now,
// raising the guard conservatively. Own grants are skipped: serving
// rights never survive snapshot transfer (no propose-time anchor).
func (t *Table) Import(holder int, remain, now int64) {
	if holder < 0 || remain <= 0 || holder == t.cfg.Self {
		return
	}
	t.holder = holder
	t.guardHolder = holder
	t.guardUntil = max(t.guardUntil, now+remain)
	t.ownValid = false
}
