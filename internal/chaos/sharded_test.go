package chaos

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/linear"
	"repro/internal/smr"
	"repro/internal/transport"
)

// TestShardedChaosLinearizable is the multi-group chaos scenario: three
// processes, each hosting several consensus groups over one transport, one
// shared WAL, and one fsync scheduler, fronted by real TCP servers.
// Pipelined session clients spray hash-routed keys across all groups while
// the nemesis partitions the fabric and crash-restarts processes (whole-WAL
// abort, multi-group recovery demux) — and the merged per-key history must
// check linearizable.
func TestShardedChaosLinearizable(t *testing.T) {
	const (
		n, f, e      = 3, 1, 1
		groups       = 4
		clients      = 6
		opsPerClient = 30
		keys         = 12
	)
	c, err := cluster.New(cluster.Options{
		N: n, F: f, E: e, Groups: groups,
		Dir: t.TempDir(), SnapshotEvery: 32, Servers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sanity: the key universe actually spans several groups (a router
	// change that collapsed it would turn this into a single-group test).
	router := c.Runtime(0).Router()
	touched := map[int]bool{}
	for _, k := range keyUniverse(keys) {
		touched[router.Group(k)] = true
	}
	if len(touched) < 2 {
		t.Fatalf("key universe hits %d group(s), want >= 2", len(touched))
	}

	addrs := c.Addrs()

	rec := linear.NewRecorder()
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(4000 + id)))
		ops := script(rng, id, opsPerClient, keys)
		// One logical client per goroutine, pinned to one proxy (failover
		// re-submission could apply a write twice; same rule as runClient).
		sc, err := smr.NewSessionClient([]string{addrs[id%n]}, smr.SessionOptions{
			Timeout: 20 * time.Second,
			Depth:   16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range ops {
				if i > 0 {
					time.Sleep(2 * time.Millisecond) // spread ops across the fault windows
				}
				p := rec.Invoke(id, op.kind, op.key, op.val)
				switch op.kind {
				case linear.KindPut:
					if err := sc.Put(op.key, op.val); err != nil {
						p.Ambiguous()
					} else {
						p.OK()
					}
				case linear.KindDelete:
					if err := sc.Delete(op.key); err != nil {
						p.Ambiguous()
					} else {
						p.OK()
					}
				default:
					v, err := sc.GetLinearizable(op.key)
					switch {
					case err == nil:
						p.Observed(v, true)
					case errors.Is(err, smr.ErrNotFound):
						p.Observed("", false)
					default:
						p.Ambiguous()
					}
				}
			}
		}()
	}

	// Nemesis, deterministic schedule: partition process 0 away from {1,2},
	// heal, crash-restart process 2 (whole shared WAL aborted, all groups
	// recover from the demuxed log), heal.
	nemesis := func() {
		time.Sleep(40 * time.Millisecond)
		c.Fabric().SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
			if (from == 0) != (to == 0) {
				return transport.FaultVerdict{Drop: true}
			}
			return transport.FaultVerdict{}
		})
		time.Sleep(150 * time.Millisecond)
		c.Fabric().SetFault(nil)
		time.Sleep(60 * time.Millisecond)
		c.Kill(2)
		time.Sleep(100 * time.Millisecond)
		if err := c.Restart(2); err != nil {
			t.Errorf("restart process 2: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nemesis()
	}()

	wg.Wait()
	<-done
	c.Fabric().SetFault(nil)
	if err := c.WaitConverged(keyUniverse(keys), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	res := linear.CheckTimeout(rec.History(), 30*time.Second)
	if !res.Ok {
		t.Fatalf("sharded chaos history not linearizable (key %q, %d ops recorded)", res.Key, rec.Len())
	}
	// Ambiguous reads leave no trace in the history (see linear.PendingOp),
	// so under real crashes the recorded count dips below the op count; a
	// large gap would mean the cluster was mostly unavailable and the check
	// mostly vacuous.
	if total := clients * opsPerClient; rec.Len() < total*3/4 {
		t.Fatalf("recorded only %d of %d ops: too much of the run failed to be meaningful", rec.Len(), total)
	}

	// The restarted process rebuilt multi-group state from one interleaved
	// WAL: its recovery info must show the demux actually happened.
	recov, _ := c.Runtime(2).Recovery()
	recovered := 0
	for _, ri := range recov {
		if ri.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("restarted process recovered no group state from the shared WAL")
	}
}
