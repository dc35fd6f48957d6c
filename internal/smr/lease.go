package smr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/lease"
	"repro/internal/smr/slotlog"
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
	// AutoGrant has the log acquire and renew the lease (a deadline every
	// max(Duration/6, 5ms), once less than a third of it remains) whenever
	// this replica is the stable Ω leader. Off, leases are only taken by
	// explicit AcquireLease calls (tests, benches).
	AutoGrant bool
	// UnsafeZeroEpsilon forces ε=0 AND disables the guard window and
	// fencing — the deliberately broken mode that the ε=0 teeth test uses
	// to prove the linearizability checker catches stale lease reads.
	// Never enable outside tests.
	UnsafeZeroEpsilon bool
	// Now, when set, replaces the replica's monotonic clock, which lease
	// windows and ballot timers read: it must return nondecreasing elapsed
	// time since the replica was built. Tests advance a fake clock past
	// expiry with it instead of sleeping out real lease windows (a frozen one
	// fires no timer). Nil uses the runtime's monotonic clock.
	Now func() time.Duration
}

// leaseConfig fills in opts' defaults and checks them: the lease table's
// configuration for process self.
func leaseConfig(opts LeaseOptions, self consensus.ProcessID) (*lease.Config, error) {
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
	return &lease.Config{Self: int(self), Duration: opts.Duration.Nanoseconds(), Epsilon: opts.Epsilon.Nanoseconds(), Unsafe: opts.UnsafeZeroEpsilon}, nil
}

// LeaseRead serves a linearizable read from local applied state when this
// replica holds a valid lease. served=false means the caller must fall
// back to a read barrier (or a leader hint).
func (r *Replica) LeaseRead(key string) (val string, ok, served bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.LeaseRead(r.now(), key)
}

// AcquireLease replicates a lease grant naming this replica as holder. It
// returns once the grant is decided and applied here; the serving window
// anchors at propose time and may open slightly later if a previous
// holder's guard is still running (HoldsLease reports the live state).
// Grants bypass the write batcher deliberately: a grant folded into an
// OpBatch would lose its identity as a grant command.
func (r *Replica) AcquireLease(ctx context.Context) error {
	if r.leases == nil {
		return errors.New("smr leases: not enabled")
	}
	_, err := r.Execute(ctx, slotlog.Grant(*r.leases))
	return err
}

// HoldsLease reports whether this replica can serve lease reads right now.
func (r *Replica) HoldsLease() bool { return r.LeaseStats().Valid }

// LeaseStats snapshots the lease/read counters.
func (r *Replica) LeaseStats() LeaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.LeaseStats(r.now())
}
