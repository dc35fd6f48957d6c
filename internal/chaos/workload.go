package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/linear"
)

// scriptOp is one scripted client operation: everything but its timing is
// fixed before the scenario starts, so the workload is a pure function of
// the seed.
type scriptOp struct {
	kind linear.Kind
	key  string
	val  string
}

// script derives client id's operation sequence from rng. Writes carry
// globally unique values (client id + op index), which keeps histories
// maximally informative for the checker: a read pins down exactly which
// write it observed.
func script(rng *rand.Rand, client, ops, keys int) []scriptOp {
	out := make([]scriptOp, ops)
	for i := range out {
		op := scriptOp{key: fmt.Sprintf("k%d", rng.Intn(keys))}
		switch rng.Intn(10) {
		case 0: // deletes are rarer: a mostly-present key exercises more
			op.kind = linear.KindDelete
		case 1, 2, 3, 4:
			op.kind = linear.KindGet
		default:
			op.kind = linear.KindPut
			op.val = fmt.Sprintf("c%d-%d", client, i)
		}
		out[i] = op
	}
	return out
}

// runClient executes a script sequentially against the cluster, recording
// every operation. The client is pinned to one proxy index (fetched live
// per op, so a crash-restart swaps the replica under it like a reconnect);
// pinning sidesteps the failover re-submit hazard — a retried write would
// be a second proposal and could apply twice, which the recorder could not
// express. Reads go through GetLinearizable: plain Get is stale by design,
// and the checker would (correctly!) flag that staleness.
//
// Outcome mapping: success records OK/Observed; any error records
// Ambiguous — with the replica crashing and the network partitioned we
// can rarely prove a request did NOT slip into consensus, and ambiguous
// is always sound (a definitely-failed op misrecorded as ambiguous only
// weakens the check, never breaks it).
func runClient(ctx context.Context, c *cluster.Cluster, rec *linear.Recorder, id, proxy int, ops []scriptOp, opTimeout, opGap time.Duration) {
	for i, op := range ops {
		if i > 0 && opGap > 0 {
			time.Sleep(opGap)
		}
		if ctx.Err() != nil {
			return
		}
		kv := c.Runtime(proxy)
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		p := rec.Invoke(id, op.kind, op.key, op.val)
		switch op.kind {
		case linear.KindPut:
			if err := kv.Put(opCtx, op.key, op.val); err != nil {
				p.Ambiguous()
			} else {
				p.OK()
			}
		case linear.KindDelete:
			if err := kv.Delete(opCtx, op.key); err != nil {
				p.Ambiguous()
			} else {
				p.OK()
			}
		default:
			v, ok, err := kv.GetLinearizable(opCtx, op.key)
			if err != nil {
				p.Ambiguous() // ambiguous reads drop from the history
			} else {
				p.Observed(v, ok)
			}
		}
		cancel()
	}
}

// keyUniverse lists every key any script touches (for convergence checks).
func keyUniverse(keys int) []string {
	out := make([]string, keys)
	for i := range out {
		out[i] = fmt.Sprintf("k%d", i)
	}
	return out
}
