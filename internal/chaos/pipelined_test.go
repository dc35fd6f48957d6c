package chaos

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/linear"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wan"
)

// TestPipelinedSessionsLinearizable is the chaos-short companion for the
// multiplexed client: pipelined session clients (shared connections, many
// tagged ops in flight, out-of-order completion) drive a live durable
// cluster over real TCP while the mesh drops, duplicates, and delays
// consensus traffic — and the recorded history must still check
// linearizable. This is the property the one-op-per-connection client got
// for free and the demux layer has to re-earn.
func TestPipelinedSessionsLinearizable(t *testing.T) {
	pipelinedSessions(t, wan.Topology{}, 0)
}

// TestPipelinedSessionsOverDistanceLinearizable is the same scenario with
// the processes a region apart (the nearest peer a 10 ms round trip away),
// where the batcher overlaps chunks: the run fails unless some proxy had
// two in consensus at once, so the verdict under drops, duplicates and
// delays covers proposals pipelined from one proxy, not only one at a time.
func TestPipelinedSessionsOverDistanceLinearizable(t *testing.T) {
	full, err := wan.Preset("spread7")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := full.Prefix(3)
	if err != nil {
		t.Fatal(err)
	}
	pipelinedSessions(t, topo, 10/float64(topo.QuorumRTT(0, 2)))
}

// pipelinedSessions runs the scenario on the Mesh, with topo's delays times
// scale on every link when a topology is given — and then requires that
// chunks overlapped. Either way some chunk must have mixed reads and writes.
func pipelinedSessions(t *testing.T, topo wan.Topology, scale float64) {
	const (
		n, f, e      = 3, 1, 1
		clients      = 9
		opsPerClient = 25
		keys         = 4
	)
	// One client-facing TCP server per process — the real wire, so frames,
	// completion callbacks, and batched reply flushes are all in the loop.
	c, err := cluster.New(cluster.Options{N: n, F: f, E: e, Dir: t.TempDir(), Servers: true, Topology: topo, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addrs := c.Addrs()
	var mixedMu sync.Mutex
	mixedSlots := map[int]bool{}
	for i := 0; i < n; i++ {
		mixedChunkTap(c, i, &mixedMu, mixedSlots)
	}

	rec := linear.NewRecorder()
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(1000 + id)))
		ops := script(rng, id, opsPerClient, keys)
		// Each workload goroutine is one logical linear client, pinned to
		// one proxy (failover re-submission could apply a write twice,
		// which the recorder cannot express — same rule as runClient).
		sc, err := smr.NewSessionClient([]string{addrs[id%n]}, smr.SessionOptions{
			Timeout: 20 * time.Second,
			Depth:   32,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
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

	// Fault window: a flaky consensus fabric for the middle of the run
	// (seeded per-message drop / duplicate / delay — delays deliberately
	// reorder), then heal. No crash-restarts here: process replacement is
	// the tagged campaign's job — this test isolates the client layer.
	var fmu sync.Mutex
	frng := rand.New(rand.NewSource(7))
	time.Sleep(50 * time.Millisecond)
	c.Fabric().SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
		fmu.Lock()
		defer fmu.Unlock()
		switch frng.Intn(20) {
		case 0:
			return transport.FaultVerdict{Drop: true}
		case 1:
			return transport.FaultVerdict{Duplicate: true}
		case 2, 3:
			return transport.FaultVerdict{Delay: time.Duration(frng.Intn(15)) * time.Millisecond}
		default:
			return transport.FaultVerdict{}
		}
	})
	healed := time.AfterFunc(600*time.Millisecond, func() { c.Fabric().SetFault(nil) })
	defer healed.Stop()

	wg.Wait()
	c.Fabric().SetFault(nil)
	if err := c.WaitConverged(keyUniverse(keys), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	res := linear.CheckTimeout(rec.History(), 30*time.Second)
	if !res.Ok {
		t.Fatalf("pipelined history not linearizable (key %q, %d ops recorded)", res.Key, rec.Len())
	}
	if rec.Len() != clients*opsPerClient {
		t.Fatalf("recorded %d ops, want %d", rec.Len(), clients*opsPerClient)
	}
	// The verdict covers batches: cluster.New batches as cmd/kv does, so
	// with two clients per proxy some slot decided an OpBatch under the
	// flaky fabric.
	var batch smr.BatchStats
	for i := 0; i < n; i++ {
		st := c.Runtime(i).Group(0).BatchStats()
		batch.Batches += st.Batches
		batch.Cmds += st.Cmds
		batch.Overlapped += st.Overlapped
	}
	t.Logf("batching: %d commands in %d consensus instances, %d of them launched while another was in flight", batch.Cmds, batch.Batches, batch.Overlapped)
	if batch.Cmds <= batch.Batches {
		t.Fatalf("no write was batched (%d commands, %d instances): the history never exercised OpBatch", batch.Cmds, batch.Batches)
	}
	if topo.N() > 0 && batch.Overlapped == 0 {
		t.Fatalf("no proxy had two chunks in consensus at once (%d instances): the history never exercised the pipelined batcher", batch.Batches)
	}
	// ...and mixed chunks: a lease-less GETL's barrier is a no-op riding the
	// batcher beside the writes, so some decided OpBatch must hold both.
	mixedMu.Lock()
	mixed := len(mixedSlots)
	mixedMu.Unlock()
	t.Logf("mixed chunks: %d decided slots carry a read barrier and a write together", mixed)
	if mixed == 0 {
		t.Fatal("no decided chunk held both a read barrier and a write: the history never exercised mixed chunks")
	}
}

// mixedChunkTap watches the Decides delivered to process i and records the
// slots whose OpBatch carries both a read barrier's no-op and a write. The
// wire, not the log: a decided value is held only until every peer has
// applied it.
func mixedChunkTap(c *cluster.Cluster, i int, mu *sync.Mutex, mixed map[int]bool) {
	h := c.Runtime(i).Handler()
	c.Fabric().Attach(i, func(from consensus.ProcessID, msg consensus.Message) {
		defer h(from, msg)
		var sm smr.SlotMessage
		var d core.DecideMsg
		if gm, ok := msg.(*shard.GroupMessage); !ok || gm.InnerKind != smr.KindSlot || sm.DecodeBody(gm.InnerBody) != nil ||
			sm.InnerKind != core.KindDecide || d.DecodeBody(sm.InnerBody) != nil {
			return
		}
		cmd, err := smr.DecodeCommand(d.Value)
		if err != nil || cmd.Op != smr.OpBatch {
			return
		}
		noop, write := false, false
		for _, sub := range cmd.Subs {
			noop = noop || sub.Op == smr.OpNoop
			write = write || sub.Op == smr.OpPut || sub.Op == smr.OpDelete
		}
		if noop && write {
			mu.Lock()
			mixed[sm.Slot] = true
			mu.Unlock()
		}
	})
}
