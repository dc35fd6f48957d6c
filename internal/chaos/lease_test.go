package chaos

import (
	"context"
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

// TestLeaseChaosLinearizable is the lease chaos scenario: a sharded cluster
// with auto-granted leader leases on every group, fronted by real TCP
// servers. Pinned writers and PreferLeader readers run while the nemesis
// partitions the initial leaseholder away and then crash-restarts it
// mid-lease (the restart must forget serving rights; the survivors' guard
// windows must lapse before anyone else serves). The merged history must
// check linearizable, and the run must actually exercise the lease fast
// path (local hits > 0) for the check to mean anything.
func TestLeaseChaosLinearizable(t *testing.T) {
	const (
		n, f, e      = 3, 1, 1
		groups       = 2
		opsPerClient = 40
		keys         = 8
	)
	lo := &smr.LeaseOptions{
		Duration:  250 * time.Millisecond,
		Epsilon:   25 * time.Millisecond,
		AutoGrant: true,
	}
	c, err := cluster.New(cluster.Options{
		N: n, F: f, E: e, Groups: groups, Leases: lo,
		Dir: t.TempDir(), SnapshotEvery: 32, Servers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addrs := c.Addrs()

	// Let the auto-grant take the leases before traffic starts (it
	// waits for a stable Ω leader), so the scenario actually runs against
	// live leases rather than finishing before the first grant.
	if err := c.WaitLeases(10 * time.Second); err != nil {
		t.Fatalf("%v (g0 stats %+v)", err, c.Runtime(0).Group(0).LeaseStats())
	}

	rec := linear.NewRecorder()
	var wg sync.WaitGroup
	// Writers stay pinned to one proxy each (failover re-submission could
	// apply a write twice); a write refused under a foreign lease is a
	// definite rejection and leaves no trace in the history.
	for id := 0; id < n; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(5000 + id)))
		ops := script(rng, id, opsPerClient, keys)
		sc, err := smr.NewSessionClient([]string{addrs[id]}, smr.SessionOptions{
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
					time.Sleep(2 * time.Millisecond)
				}
				p := rec.Invoke(id, op.kind, op.key, op.val)
				var err error
				switch op.kind {
				case linear.KindPut:
					err = sc.Put(op.key, op.val)
				case linear.KindDelete:
					err = sc.Delete(op.key)
				default:
					var v string
					if v, err = sc.GetLinearizable(op.key); err == nil {
						p.Observed(v, true)
						continue
					}
					if errors.Is(err, smr.ErrNotFound) {
						p.Observed("", false)
						continue
					}
				}
				switch {
				case err == nil:
					p.OK()
				case errors.Is(err, smr.ErrRejected):
					p.Failed() // definitely not applied (lease refusal, bad key)
				default:
					p.Ambiguous()
				}
			}
		}()
	}
	// Readers follow the lease: multi-address PreferLeader clients whose
	// GETLs are moved to the current holder by the lease-held redirect.
	// Reads are idempotent, so cross-proxy failover is safe for them.
	for id := n; id < 2*n; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(5000 + id)))
		ops := script(rng, id, opsPerClient, keys)
		sc, err := smr.NewSessionClient(addrs, smr.SessionOptions{
			Timeout:      20 * time.Second,
			Depth:        16,
			PreferLeader: true,
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
					time.Sleep(2 * time.Millisecond)
				}
				p := rec.Invoke(id, linear.KindGet, op.key, "")
				v, err := sc.GetLinearizable(op.key)
				switch {
				case err == nil:
					p.Observed(v, true)
				case errors.Is(err, smr.ErrNotFound):
					p.Observed("", false)
				case errors.Is(err, smr.ErrRejected):
					p.Failed()
				default:
					p.Ambiguous()
				}
			}
		}()
	}

	// Nemesis: partition process 0 (the initial Ω leader, hence the first
	// auto-granted leaseholder) away mid-lease, heal, then crash-restart it
	// mid-lease — recovery replays its own grant, which must confer no
	// serving rights.
	// Crash-restarting process 0 rebuilds its runtime with fresh counters,
	// so snapshot the lease hits it served before the kill.
	var preKillHits uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(60 * time.Millisecond)
		c.Fabric().SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
			if (from == 0) != (to == 0) {
				return transport.FaultVerdict{Drop: true}
			}
			return transport.FaultVerdict{}
		})
		time.Sleep(200 * time.Millisecond)
		c.Fabric().SetFault(nil)
		time.Sleep(100 * time.Millisecond)
		for g := 0; g < groups; g++ {
			preKillHits += c.Runtime(0).Group(g).LeaseStats().Hits
		}
		c.Kill(0)
		time.Sleep(150 * time.Millisecond)
		if err := c.Restart(0); err != nil {
			t.Errorf("restart process 0: %v", err)
		}
	}()

	wg.Wait()
	<-done
	c.Fabric().SetFault(nil)
	if err := c.WaitConverged(keyUniverse(keys), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	res := linear.CheckTimeout(rec.History(), 30*time.Second)
	if !res.Ok {
		t.Fatalf("lease chaos history not linearizable (key %q, %d ops recorded)", res.Key, rec.Len())
	}
	// The scenario is vacuous unless the lease fast path actually served
	// reads somewhere (holder moved around, but hits must have happened).
	hits := preKillHits
	for i := 0; i < n; i++ {
		rt := c.Runtime(i)
		for g := 0; g < groups; g++ {
			hits += rt.Group(g).LeaseStats().Hits
		}
	}
	if hits == 0 {
		t.Fatal("lease chaos run never served a local lease read")
	}
	if total := 2 * n * opsPerClient; rec.Len() < total/3 {
		t.Fatalf("recorded only %d of %d ops: too much of the run failed to be meaningful", rec.Len(), total)
	}
}

// TestLeaseTeethZeroEpsilon proves the teeth of the ε margin by removing
// it: with UnsafeZeroEpsilon (no margin, no guard, no fencing) an isolated
// leaseholder keeps serving local reads while the survivors commit fresh
// writes — and the linearizability checker must CATCH the stale read. The
// same schedule in safe mode keeps the survivor's write refused under the
// guard, and the history checks clean. One flag separates a correct
// protocol from a broken one, and the checker can tell.
func TestLeaseTeethZeroEpsilon(t *testing.T) {
	run := func(t *testing.T, lo smr.LeaseOptions) (linear.Result, error) {
		// Non-durable, on the Mesh: the test needs direct fault control
		// between specific processes.
		c, err := cluster.New(cluster.Options{N: 3, F: 1, E: 1, Leases: &lo})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		replicas := []*smr.Replica{c.Runtime(0).Group(0), c.Runtime(1).Group(0)}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()

		rec := linear.NewRecorder()
		kv0, kv1 := replicas[0], replicas[1]

		p := rec.Invoke(0, linear.KindPut, "k", "v1")
		if err := kv0.Put(ctx, "k", "v1"); err != nil {
			t.Fatalf("put v1: %v", err)
		}
		p.OK()
		if err := replicas[0].AcquireLease(ctx); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if !replicas[0].HoldsLease() {
			t.Fatal("p0 lease not valid")
		}

		// Isolate the leaseholder: nothing in or out of p0. The {p1,p2}
		// majority can still decide commands on its own.
		c.Fabric().SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
			if (from == 0) != (to == 0) {
				return transport.FaultVerdict{Drop: true}
			}
			return transport.FaultVerdict{}
		})

		// A survivor writes. Unsafe mode: no guard, the write commits and
		// is acknowledged. Safe mode: refused under p0's guard window.
		p = rec.Invoke(1, linear.KindPut, "k", "v2")
		werr := kv1.Put(ctx, "k", "v2")
		switch {
		case werr == nil:
			p.OK()
		case errors.Is(werr, smr.ErrLeaseHeld):
			p.Failed() // definitely not applied: no trace in the history
		default:
			t.Fatalf("put v2: %v", werr)
		}

		// The isolated holder still believes its lease: a local read.
		p = rec.Invoke(2, linear.KindGet, "k", "")
		v, found, err := kv0.GetLinearizable(ctx, "k")
		if err != nil || !found {
			t.Fatalf("GETL at isolated holder = %q, %t, %v", v, found, err)
		}
		p.Observed(v, true)
		if hits := replicas[0].LeaseStats().Hits; hits == 0 {
			t.Fatal("isolated holder did not serve from its lease")
		}

		c.Fabric().SetFault(nil)
		return linear.CheckTimeout(rec.History(), 30*time.Second), werr
	}

	t.Run("unsafe-zero-epsilon-caught", func(t *testing.T) {
		res, werr := run(t, smr.LeaseOptions{
			Duration:          10 * time.Second,
			UnsafeZeroEpsilon: true,
		})
		if werr != nil {
			t.Fatalf("unsafe mode must not refuse the survivor's write, got %v", werr)
		}
		if res.Ok {
			t.Fatal("ε=0 with no guard served a stale read, but the history checked linearizable — the teeth test has no teeth")
		}
	})
	t.Run("safe-mode-clean", func(t *testing.T) {
		res, werr := run(t, smr.LeaseOptions{
			Duration: 10 * time.Second,
			Epsilon:  50 * time.Millisecond,
		})
		if !errors.Is(werr, smr.ErrLeaseHeld) {
			t.Fatalf("safe mode must refuse the survivor's write under the guard, got %v", werr)
		}
		if !res.Ok {
			t.Fatalf("safe-mode history not linearizable (key %q)", res.Key)
		}
	})
}
