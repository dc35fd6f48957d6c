package smr

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// KV is the client-facing API of the replicated key-value store, bound to
// one replica acting as this client's proxy (Schneider's SMR pattern, as in
// the paper's introduction).
type KV struct {
	proxy *Replica
}

// NewKV wraps a replica as a key-value client.
func NewKV(proxy *Replica) *KV { return &KV{proxy: proxy} }

// Put replicates a write and returns once it is decided and applied at the
// proxy.
func (kv *KV) Put(ctx context.Context, key, val string) error {
	return kv.proxy.Submit(ctx, Command{Op: OpPut, Key: key, Val: val})
}

// Delete replicates a deletion.
func (kv *KV) Delete(ctx context.Context, key string) error {
	return kv.proxy.Submit(ctx, Command{Op: OpDelete, Key: key})
}

// PutAll replicates several writes atomically: they occupy one log slot (an
// OpBatch command), so every replica applies either all of them or none,
// with no interleaved foreign writes.
func (kv *KV) PutAll(ctx context.Context, kvs map[string]string) error {
	if len(kvs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	subs := make([]Command, 0, len(kvs))
	for i, k := range keys {
		subs = append(subs, Command{ID: fmt.Sprintf("sub-%d", i), Op: OpPut, Key: k, Val: kvs[k]})
	}
	return kv.proxy.Submit(ctx, Command{Op: OpBatch, Subs: subs})
}

// Get reads from the proxy's applied state. Reads are served locally and
// reflect every write this client performed through the same proxy (the
// proxy applies a slot before acknowledging it). Reads of other clients'
// writes may lag; use GetLinearizable for a read that observes every write
// acknowledged anywhere before it started.
func (kv *KV) Get(key string) (string, bool) {
	return kv.proxy.Get(key)
}

// GetLinearizable performs a linearizable read, three-tiered:
//
//  1. The proxy holds a valid lease → serve from local applied state with
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
func (kv *KV) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	if v, ok, served := kv.proxy.LeaseRead(key); served {
		return v, ok, nil
	}
	if err := kv.proxy.ReadBarrier(ctx); err != nil {
		return "", false, err
	}
	v, ok := kv.proxy.Get(key)
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
// Under a foreign lease propose refuses the whole chunk toward the holder
// (leaseRefuseLocked), as it refuses a lone no-op. A fenced barrier is not a
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
		err = r.leaseRefuseLocked()
		r.mu.Unlock()
		if err != nil {
			return err
		}
	}
}
