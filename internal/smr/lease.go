package smr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/lease"
)

// ErrLeaseHeld is the definite pre-propose refusal a replica gives while a
// foreign lease is conservatively live: the command was never proposed, so
// retrying it elsewhere (at the leaseholder) is always safe. Match with
// errors.Is; the concrete *LeaseHeldError carries the holder hint.
var ErrLeaseHeld = errors.New("smr: lease held")

// ErrLeaseFenced reports that a command was decided and applied while a
// foreign lease was still conservatively live at its proposer: the holder
// may have served linearizable reads that missed it, so the caller must
// treat the outcome as ambiguous (the command IS applied, but it must not
// be advertised as a definite, ordered success).
var ErrLeaseFenced = errors.New("lease fenced: command applied but a concurrent leaseholder may not have observed it")

// LeaseHeldError is the refusal returned for commands proposed at a
// non-leaseholder while the lease is live. Its text is what the server
// renders on the wire ("ERR lease held by replica N"): SessionClient's
// PreferLeader redial parses the holder back out and moves the session.
type LeaseHeldError struct {
	// Holder is the replica believed to hold the lease.
	Holder int
}

func (e *LeaseHeldError) Error() string {
	return fmt.Sprintf("lease held by replica %d", e.Holder)
}

// Is matches ErrLeaseHeld so callers use errors.Is without knowing the
// concrete type, and ErrRejected because the refusal happens before the
// command is proposed: it definitely did not execute, so it sits on the
// definite side of the client error taxonomy.
func (e *LeaseHeldError) Is(target error) bool {
	return target == ErrLeaseHeld || target == ErrRejected
}

// leaseHeldPrefix is the wire form of LeaseHeldError behind "ERR ".
const leaseHeldPrefix = "ERR lease held by replica "

// LeaseOptions configures replicated leader leases (ReplicaOptions.Leases).
type LeaseOptions struct {
	// Duration is the grant length. Default 2s.
	Duration time.Duration
	// Epsilon is the clock-skew safety margin ε: the holder stops serving
	// ε before nominal expiry, everyone else keeps blocking ε after it.
	// Default 50ms. Must satisfy 2ε < Duration.
	Epsilon time.Duration
	// AutoGrant arms a timer that acquires and renews the lease whenever
	// this replica is the stable Ω leader, renewing once less than a third
	// of the lease remains. Off, leases are only taken by explicit
	// AcquireLease calls (tests, benches).
	AutoGrant bool
	// UnsafeZeroEpsilon forces ε=0 AND disables the guard window and
	// fencing — the deliberately broken mode that the ε=0 teeth test uses
	// to prove the linearizability checker catches stale lease reads.
	// Never enable outside tests.
	UnsafeZeroEpsilon bool
	// Now, when set, replaces the replica's monotonic lease clock: it must
	// return nondecreasing elapsed time since the replica was built. Tests
	// advance a fake clock past expiry with it instead of sleeping out real
	// lease windows. Nil uses the runtime's monotonic clock.
	Now func() time.Duration
}

// leaseState is the replica-side lease machinery around the deterministic
// lease.Table, which the machine holds (kvMachine.leases): the clock, the
// auto-grant timer and the counters. All fields are guarded by Replica.mu
// except opts/start, which are immutable after construction.
type leaseState struct {
	opts  LeaseOptions
	start time.Time // monotonic origin for now()

	timer    timer // auto-grant / renew; the one host timer no slot owns
	inFlight bool  // a grant proposal is in flight (auto-renew dedup)

	hits, misses, expired, revoked uint64
	refused, fencedN, grants       uint64
}

// now reads this replica's monotonic clock (nanoseconds since
// construction); time.Since uses the runtime's monotonic reading, so wall
// clock jumps cannot move lease windows. A LeaseOptions.Now hook replaces
// the clock wholesale (fake-clock tests). Without leases it reads 0: the
// machine has no table to read it.
func (ls *leaseState) now() int64 {
	switch {
	case ls == nil:
		return 0
	case ls.opts.Now != nil:
		return ls.opts.Now().Nanoseconds()
	}
	return time.Since(ls.start).Nanoseconds()
}

// count adds what applying a command did to the lease table to the counters.
func (ls *leaseState) count(ev lease.Event) {
	if ev.Granted {
		ls.grants++
	}
	if ev.Revoked {
		ls.revoked++
	}
	if ev.Fenced {
		ls.fencedN++
	}
}

// newLeaseState fills in opts' defaults and starts the lease clock; the
// auto-grant timer waits for Start.
func newLeaseState(opts LeaseOptions) (*leaseState, error) {
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.UnsafeZeroEpsilon {
		opts.Epsilon = 0
	} else if opts.Epsilon <= 0 {
		opts.Epsilon = 50 * time.Millisecond
	}
	if !opts.UnsafeZeroEpsilon && 2*opts.Epsilon >= opts.Duration {
		return nil, fmt.Errorf("smr leases: 2ε (%v) must be smaller than the lease duration (%v)", 2*opts.Epsilon, opts.Duration)
	}
	return &leaseState{opts: opts, start: time.Now()}, nil
}

// table is a fresh lease table for replica self under these options.
func (ls *leaseState) table(self consensus.ProcessID) *lease.Table {
	return lease.New(lease.Config{
		Self:     int(self),
		Duration: ls.opts.Duration.Nanoseconds(),
		Epsilon:  ls.opts.Epsilon.Nanoseconds(),
		Unsafe:   ls.opts.UnsafeZeroEpsilon,
	})
}

// renewAhead is how much of an own lease may remain when the auto-grant timer
// proposes a fresh grant: a third of it.
func (ls *leaseState) renewAhead() time.Duration { return ls.opts.Duration / 3 }

// proposerOf extracts the proposing replica from a command ID ("p3-17",
// "p3-batch-4" → 3). Unknown shapes (sub-commands, external IDs) map to -1:
// the lease table treats them as foreign, which revokes conservatively and
// never fences. A forged "pN-" prefix cannot break safety — refusal and
// fencing key on the *proposing replica's own* guard state, not on the ID;
// proposer identity only decides whether a command renews or revokes.
func proposerOf(id string) int {
	i := strings.IndexByte(id, '-')
	if i < 2 || id[0] != 'p' {
		return -1
	}
	n, err := strconv.Atoi(id[1:i])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// leaseRefuseLocked implements the pre-propose gate: while a foreign lease
// is conservatively live this replica must not acknowledge commands it
// proposes (the holder could serve reads that miss them), so it refuses
// them outright — a definite rejection carrying the holder hint, safe to
// retry at the leaseholder.
func (r *Replica) leaseRefuseLocked() error {
	if r.ls == nil {
		return nil
	}
	now := r.ls.now()
	if r.m.leases.ExpireCheck(now) {
		r.ls.expired++
	}
	if !r.m.leases.Guarded(now) {
		return nil
	}
	r.ls.refused++
	return &LeaseHeldError{Holder: r.m.leases.GuardHolder()}
}

// LeaseRead serves a linearizable read from local applied state when this
// replica holds a valid lease. served=false means the caller must fall
// back to a read barrier (or a leader hint).
func (r *Replica) LeaseRead(key string) (val string, ok, served bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ls == nil || r.closed {
		return "", false, false
	}
	now := r.ls.now()
	if r.m.leases.ExpireCheck(now) {
		r.ls.expired++
	}
	if !r.m.leases.HolderValid(now) {
		r.ls.misses++
		return "", false, false
	}
	r.ls.hits++
	val, ok = r.m.get(key)
	return val, ok, true
}

// AcquireLease replicates a lease grant naming this replica as holder. It
// returns once the grant is decided and applied here; the serving window
// anchors at propose time and may open slightly later if a previous
// holder's guard is still running (HoldsLease reports the live state).
// Grants bypass the write batcher deliberately: a grant folded into an
// OpBatch would lose its identity as a grant command.
func (r *Replica) AcquireLease(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.ls == nil {
		r.mu.Unlock()
		return errors.New("smr leases: not enabled")
	}
	r.seq++
	id := fmt.Sprintf("%s-%d", r.cfg.ID, r.seq)
	durNs := r.ls.opts.Duration.Nanoseconds()
	// Propose-time anchor, recorded before the command can possibly apply
	// anywhere: every replica's guard window starts at or after it.
	r.m.leases.NoteProposed(id, r.ls.now())
	r.mu.Unlock()

	cmd := Command{
		ID:  id,
		Op:  OpLeaseGrant,
		Key: strconv.Itoa(int(r.cfg.ID)),
		Val: strconv.FormatInt(durNs, 10),
	}
	slot, err := r.Execute(ctx, cmd)
	if err == nil {
		err = r.WaitApplied(ctx, slot)
	}
	if err != nil {
		r.mu.Lock()
		if r.ls != nil {
			// If the grant decides anyway it applies without a pending
			// entry and confers no serving rights — conservative.
			r.m.leases.DropProposed(id)
		}
		r.mu.Unlock()
	}
	return err
}

// HoldsLease reports whether this replica can serve lease reads right now.
func (r *Replica) HoldsLease() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ls != nil && r.m.leases.HolderValid(r.ls.now())
}

// scheduleLeaseLocked (re)arms the auto-grant/renew timer. Period is a
// fraction of the renew window so expiry is noticed promptly.
func (r *Replica) scheduleLeaseLocked() {
	period := max(r.ls.renewAhead()/2, 5*time.Millisecond)
	r.armLocked(&r.ls.timer, period, func() func() {
		r.scheduleLeaseLocked()
		now := r.ls.now()
		if r.m.leases.ExpireCheck(now) {
			r.ls.expired++
		}
		propose := false
		// Only the stable Ω leader volunteers: one likely grantee per
		// group, so competing grants (each revoking the other) stay a
		// transient of leader churn, not the steady state.
		if !r.ls.inFlight && r.leaders.Leader() == r.cfg.ID && r.leaders.LeaderStable(2) {
			if r.m.leases.HolderValid(now) {
				propose = r.m.leases.Remaining(now) < r.ls.renewAhead().Nanoseconds()
			} else {
				propose = !r.m.leases.Guarded(now)
			}
		}
		if !propose {
			return nil
		}
		r.ls.inFlight = true
		// The proposal runs in the timer's goroutine, off the lock and
		// bounded by the context.
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), r.ls.opts.Duration)
			_ = r.AcquireLease(ctx)
			cancel()
			r.mu.Lock()
			r.ls.inFlight = false
			r.mu.Unlock()
		}
	})
}

// LeaseStats is a point-in-time snapshot of the lease and read-path
// counters, surfaced through STATS and expvar.
type LeaseStats struct {
	// Enabled: the replica was built with leases.
	Enabled bool `json:"enabled"`
	// Valid: this replica holds a live lease right now.
	Valid bool `json:"valid"`
	// Holder is the applied-log leaseholder (-1 none/revoked).
	Holder int `json:"holder"`
	// Hits/Misses count GETLs served from the local lease vs fallen back.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Expired counts own-lease expiries; Revoked counts applied-log
	// revocations (a command from a non-holder); Grants counts applied
	// grants.
	Expired uint64 `json:"expired"`
	Revoked uint64 `json:"revoked"`
	Grants  uint64 `json:"grants"`
	// Refused counts commands rejected pre-propose under a foreign lease;
	// Fenced counts commands applied but downgraded to ambiguous.
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

// LeaseStats snapshots the lease/read counters.
func (r *Replica) LeaseStats() LeaseStats {
	st := LeaseStats{Holder: -1}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ls == nil {
		return st
	}
	st.Enabled = true
	st.Valid = r.m.leases.HolderValid(r.ls.now())
	st.Holder = r.m.leases.Holder()
	st.Hits, st.Misses = r.ls.hits, r.ls.misses
	st.Expired, st.Revoked, st.Grants = r.ls.expired, r.ls.revoked, r.ls.grants
	st.Refused, st.Fenced = r.ls.refused, r.ls.fencedN
	return st
}
