package smr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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
// lease.Table, which the log's machine holds: the clock and the auto-grant
// timer; the counters are the log's. timer and inFlight are guarded by
// Replica.mu; opts, self and start are immutable after construction.
type leaseState struct {
	opts  LeaseOptions
	self  consensus.ProcessID
	start time.Time // monotonic origin for now()

	timer    *time.Timer // auto-grant / renew; the one host timer no slot owns
	inFlight bool        // a grant proposal is in flight (auto-renew dedup)
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

// newLeaseState fills in opts' defaults and starts the lease clock; the
// auto-grant timer waits for Start.
func newLeaseState(opts LeaseOptions, self consensus.ProcessID) (*leaseState, error) {
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
	return &leaseState{opts: opts, self: self, start: time.Now()}, nil
}

// table is a fresh lease table under these options; nil without leases.
func (ls *leaseState) table() *lease.Table {
	if ls == nil {
		return nil
	}
	return lease.New(lease.Config{
		Self:     int(ls.self),
		Duration: ls.opts.Duration.Nanoseconds(),
		Epsilon:  ls.opts.Epsilon.Nanoseconds(),
		Unsafe:   ls.opts.UnsafeZeroEpsilon,
	})
}

// renewAhead is how much of an own lease may remain when the auto-grant timer
// proposes a fresh grant: a third of it.
func (ls *leaseState) renewAhead() time.Duration { return ls.opts.Duration / 3 }

// LeaseRead serves a linearizable read from local applied state when this
// replica holds a valid lease. served=false means the caller must fall
// back to a read barrier (or a leader hint).
func (r *Replica) LeaseRead(key string) (val string, ok, served bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.LeaseRead(r.ls.now(), key)
}

// AcquireLease replicates a lease grant naming this replica as holder. It
// returns once the grant is decided and applied here; the serving window
// anchors at propose time and may open slightly later if a previous
// holder's guard is still running (HoldsLease reports the live state).
// Grants bypass the write batcher deliberately: a grant folded into an
// OpBatch would lose its identity as a grant command.
func (r *Replica) AcquireLease(ctx context.Context) error {
	if r.ls == nil {
		return errors.New("smr leases: not enabled")
	}
	_, err := r.Execute(ctx, Command{
		Op:  OpLeaseGrant,
		Key: strconv.Itoa(int(r.ls.self)),
		Val: strconv.FormatInt(r.ls.opts.Duration.Nanoseconds(), 10),
	})
	return err
}

// HoldsLease reports whether this replica can serve lease reads right now.
func (r *Replica) HoldsLease() bool { return r.LeaseStats().Valid }

// scheduleLeaseLocked (re)arms the auto-grant/renew timer. Period is a
// fraction of the renew window so expiry is noticed promptly.
func (r *Replica) scheduleLeaseLocked() {
	period := max(r.ls.renewAhead()/2, 5*time.Millisecond)
	r.ls.timer = time.AfterFunc(period, func() {
		r.mu.Lock()
		if r.log.Halted() {
			r.mu.Unlock()
			return
		}
		r.scheduleLeaseLocked()
		want := r.log.WantsGrant(r.ls.now(), r.ls.renewAhead().Nanoseconds())
		// Only the stable Ω leader volunteers: one likely grantee per group,
		// so competing grants (each revoking the other) stay a transient of
		// leader churn, not the steady state.
		lead := r.timers.leaders
		propose := want && !r.ls.inFlight && lead.Leader() == r.ls.self && lead.LeaderStable(2)
		r.ls.inFlight = r.ls.inFlight || propose
		r.mu.Unlock()
		if propose {
			ctx, cancel := context.WithTimeout(context.Background(), r.ls.opts.Duration)
			_ = r.AcquireLease(ctx)
			cancel()
			r.mu.Lock()
			r.ls.inFlight = false
			r.mu.Unlock()
		}
	})
}

// LeaseStats snapshots the lease/read counters.
func (r *Replica) LeaseStats() LeaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.LeaseStats(r.ls.now())
}
