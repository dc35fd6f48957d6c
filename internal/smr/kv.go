package smr

import (
	"context"
	"errors"
)

// The client-facing key-value API: a replica serves it as its clients' proxy
// (Schneider's SMR pattern, as in the paper's introduction).

// Put replicates a write and returns once it is decided and applied here.
func (r *Replica) Put(ctx context.Context, key, val string) error {
	return r.Submit(ctx, Command{Op: OpPut, Key: key, Val: val})
}

// Delete replicates a deletion.
func (r *Replica) Delete(ctx context.Context, key string) error {
	return r.Submit(ctx, Command{Op: OpDelete, Key: key})
}

// Get reads key from this replica's applied state. It reflects every write
// acknowledged through this replica (a slot applies here before its ack), but
// writes acknowledged elsewhere may lag: GetLinearizable observes every write
// acknowledged anywhere before it started.
func (r *Replica) Get(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Get(key)
}

// GetLinearizable performs a linearizable read, three-tiered:
//
//  1. This replica holds a valid lease → serve from local applied state with
//     zero network round trips (the lease grant was replicated through
//     consensus, so every other replica refuses to acknowledge commands
//     the leaseholder has not applied — see internal/lease).
//  2. No lease anywhere → a no-op through the write batcher (ReadBarrier),
//     then read local state: the read costs what a write costs, and shares
//     its slot with whatever reads and writes arrive beside it.
//  3. Another replica holds the lease → the barrier is refused with
//     ErrLeaseHeld carrying the holder ("ERR lease held by replica N" on
//     the wire), which SessionClient's PreferLeader redial follows to the
//     leaseholder.
//
// Any write acknowledged before this call started is visible in all tiers:
// tier 1 because acknowledgements elsewhere are refused or fenced while
// the lease is live, tier 2 because an acknowledged write's slot decides
// below the barrier no-op's slot.
func (r *Replica) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	if v, ok, served := r.LeaseRead(key); served {
		return v, ok, nil
	}
	if err := r.ReadBarrier(ctx); err != nil {
		return "", false, err
	}
	v, ok := r.Get(key)
	return v, ok, nil
}

// ReadBarrier ensures every command acknowledged anywhere before this call
// started has been applied to the local store when it returns: the
// linearizable-read barrier behind GetLinearizable's non-lease path. It is
// one no-op Submit, so concurrent barriers and concurrent writes share
// slots, pipeline to the batcher's depth and are released by the batcher on
// close, cancel and poison like any other rider. That it is a barrier is the
// write path's argument: the no-op is enqueued before its chunk is cut and
// proposed; a write acknowledged before this call began had its slot and
// every slot below it decided before its ack, so the chunk can win no slot
// at or below it; and Submit returns after the chunk's slot applied here.
// Under a foreign lease the log refuses the whole chunk toward the holder
// (slotlog.Log.Gate), as it refuses a lone no-op. A fenced barrier is not a
// barrier: its chunk applied here inside a foreign lease's guard, and the
// holder, serving lease reads since it applied its own grant, may not have
// applied that chunk yet — a read returned here could show a write the
// holder's next read misses. While the guard stands the read is refused
// toward the holder like one that was never proposed; once it has lapsed the
// barrier runs again.
func (r *Replica) ReadBarrier(ctx context.Context) error {
	for {
		err := r.Submit(ctx, Command{Op: OpNoop})
		if !errors.Is(err, ErrLeaseFenced) {
			return err
		}
		r.mu.Lock()
		holder, held := r.log.Gate(r.now())
		r.mu.Unlock()
		if held {
			return &LeaseHeldError{Holder: holder}
		}
	}
}
