package smr_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// decideGate wraps a process's endpoint and, once armed, swallows every
// message by which this replica could teach peers a decision: the decide
// broadcast, applied-index gossip, and catchup replies. Protocol
// request/response traffic (1B/2B votes to the proposer) still flows, so
// the replica can keep deciding locally while the rest of the cluster
// learns nothing — the "crash between WAL commit and send" window stretched
// wide open.
type decideGate struct {
	transport.Transport
	armed atomic.Bool
}

func (g *decideGate) Send(to consensus.ProcessID, msg consensus.Message) error {
	if g.armed.Load() {
		switch m := inner(msg).(type) {
		case *smr.SlotMessage:
			if m.InnerKind == core.KindDecide {
				return nil
			}
		case *shard.Status, *smr.CatchupReply:
			_ = m
			return nil
		}
	}
	return g.Transport.Send(to, msg)
}

// TestAckedWriteSurvivesCrashBeforeDecideSend is the PR-4 outbox
// regression, on the full client path: the proposer acknowledges a write
// to a TCP client, crashes (WAL aborted, no final sync) before its decide
// broadcast reaches any peer, and must still serve the write after
// restarting from its data directory alone. If the outbox ever
// acknowledged before the group commit was durable, the restarted replica
// would come back without the write.
func TestAckedWriteSurvivesCrashBeforeDecideSend(t *testing.T) {
	const n = 3
	base := t.TempDir()
	var gate *decideGate
	c := newTestCluster(t, n, 1, 1, procOptions{
		dur: durableUnder(base, nil),
		bind0: func(tr transport.Transport) transport.Transport {
			gate = &decideGate{Transport: tr}
			return gate
		},
	})
	replicas := c.replicas()

	srv, err := smr.NewBackendServer(c.rts[0], "127.0.0.1:0", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := newTestSessionClient(t, []string{srv.Addr()}, smr.SessionOptions{Timeout: 10 * time.Second, Depth: 1})

	if err := client.Put("warm", "up"); err != nil {
		t.Fatalf("warm-up put: %v", err)
	}
	replicas[0].SyncIO()

	gate.armed.Store(true)
	if err := client.Put("k", "acked"); err != nil {
		t.Fatalf("put under decide gate: %v", err)
	}
	// The client holds an acknowledgement. Crash the proposer: abort the
	// WAL without the graceful final sync and let no further byte out.
	if err := c.rts[0].Kill(); err != nil {
		t.Logf("kill: %v", err) // fd close errors are not the point here
	}

	// No peer may have learned the decision — the ack must be backed by
	// the proposer's WAL, not by surviving replicas.
	for i := 1; i < n; i++ {
		if v, ok := replicas[i].Get("k"); ok {
			t.Fatalf("replica %d learned k=%q despite the decide gate", i, v)
		}
	}

	// Restart the proposer from its data directory, fully isolated: a
	// capture transport instead of the mesh, so recovery can only use what
	// the crashed process made durable.
	rt0, _ := openIsolated(t, 0, filepath.Join(base, "r0"), nil)
	r0 := rt0.Group(0)
	info, _ := rt0.Recovery()

	if v, ok := r0.Get("k"); !ok || v != "acked" {
		t.Fatalf("restarted proposer Get(k) = %q, %t — client-acked write lost after crash (recovery: %+v)",
			v, ok, info)
	}
	if v, ok := r0.Get("warm"); !ok || v != "up" {
		t.Fatalf("restarted proposer lost the warm-up write: %q, %t", v, ok)
	}
}

// TestKillFailsOutstandingCallsAndIsSilent pins Kill's barrier semantics:
// a Kill concurrent with client traffic must fail the outstanding calls
// (never acknowledge them after the WAL is gone) and leave the replica
// externally silent once it returns.
func TestKillFailsOutstandingCallsAndIsSilent(t *testing.T) {
	var tap *tapTransport
	c := newTestCluster(t, 3, 1, 1, procOptions{
		dur: durableUnder(t.TempDir(), nil),
		bind0: func(tr transport.Transport) transport.Transport {
			tap = &tapTransport{Transport: tr}
			return tap
		},
	})
	replicas := c.replicas()

	kv := replicas[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		i := i
		go func() { results <- kv.Put(ctx, fmt.Sprintf("x%d", i), "y") }()
	}
	// Let some calls get in flight, then pull the plug mid-traffic.
	time.Sleep(2 * time.Millisecond)
	if err := c.rts[0].Kill(); err != nil {
		t.Logf("kill: %v", err)
	}
	for i := 0; i < 4; i++ {
		// Calls either completed before the crash or must fail; hanging or
		// a post-crash acknowledgement would be a barrier violation.
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatal("client call still pending after Kill returned")
		}
	}
	tap.arm(0) // count every send from here on: slots, heartbeats, Status
	time.Sleep(150 * time.Millisecond)
	if got := tap.sends.Load(); got != 0 {
		t.Fatalf("%d message(s) left the process after Kill returned", got)
	}
}
