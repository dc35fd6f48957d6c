package shard_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/omega"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestIntervalFsyncOncePerProcess drives wal.SyncInterval through the
// runtime: four groups write into one log and one clock syncs it. Writes are
// acknowledged while an fsync hangs (no Commit on the hot path), become
// durable within a few periods, cost at most one fsync per period however
// many groups wrote — and when the log cannot be synced any more, every group
// is poisoned, not only the one whose append found out.
func TestIntervalFsyncOncePerProcess(t *testing.T) {
	const groups, period = 4, 5 * time.Millisecond
	base := t.TempDir()
	var hooks atomic.Int64
	var hold atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	rts, mesh := bootClusterWith(t, groups, func(i int) *shard.Durability {
		d := &shard.Durability{
			Dir: filepath.Join(base, fmt.Sprintf("p%d", i)), Policy: wal.SyncInterval,
			SyncEvery: period, SnapshotEvery: -1,
		}
		if i == 0 {
			d.SyncHook = func() {
				hooks.Add(1)
				if hold.Load() {
					<-release
				}
			}
		}
		return d
	})
	defer mesh.Close()
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	c := ctx(t)
	// keys[g] routes to group g.
	var keys [groups]string
	for i, found := 0, 0; found < groups; i++ {
		k := fmt.Sprintf("key-%d", i)
		if g := rts[0].Router().Group(k); keys[g] == "" {
			keys[g], found = k, found+1
		}
	}
	putAll := func(val string) {
		t.Helper()
		for _, k := range keys {
			if err := rts[0].Put(c, k, val); err != nil {
				t.Fatalf("put %s: %v", k, err)
			}
		}
	}
	syncs := func() uint64 {
		st, _ := rts[0].WalStats()
		return st.Syncs
	}

	putAll("warm")
	// An fsync that hangs stalls no acknowledgement.
	hold.Store(true)
	for deadline, h := time.Now().Add(5*time.Second), hooks.Load(); hooks.Load() == h; time.Sleep(time.Millisecond) {
		putAll("wake the clock") // an idle log has nothing to sync
		if time.Now().After(deadline) {
			t.Fatal("the interval fsync never ran")
		}
	}
	putAll("acked while the fsync hangs")
	hold.Store(false)
	unblock()

	// Durable within a few periods: the second fsync from here started after
	// every write above was acknowledged.
	for deadline, s := time.Now().Add(5*time.Second), syncs(); syncs() < s+2; time.Sleep(period) {
		putAll("keep the log dirty")
		if time.Now().After(deadline) {
			t.Fatalf("%d fsyncs in 5 s of writes at a %v period", syncs()-s, period)
		}
	}

	// One fsync per period, not one per group that wrote.
	const periods = 40
	h0, t0 := hooks.Load(), time.Now()
	for time.Since(t0) < periods*period {
		putAll("busy")
	}
	// +2: a tick buffered before the window opened, and the window's own edge.
	if got, most := hooks.Load()-h0, int64(time.Since(t0)/period)+2; got > most || got == 0 {
		t.Fatalf("%d fsyncs in %v of writes to %d groups, want at most %d (one per %v)", got, time.Since(t0), groups, most, period)
	}

	// The log fails under group 0's append; the next interval fsync tells
	// the three groups that appended nothing since.
	rts[0].Close()
	dur := &shard.Durability{
		Dir: filepath.Join(base, "p0"), Policy: wal.SyncInterval,
		SyncEvery: period, SnapshotEvery: -1, FailpointLimit: 1,
	}
	rt, err := shard.New(shard.Options{
		Groups: groups, Tick: time.Millisecond, Durability: dur,
		Config: consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	rts[0] = rt
	ep, err := mesh.Endpoint(0, rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	rt.BindTransport(ep)
	rt.Start()
	short, cancel := context.WithTimeout(c, 2*time.Second)
	defer cancel()
	if err := rt.Put(short, keys[0], "torn"); !errors.Is(err, smr.ErrClosed) {
		t.Fatalf("put into a log that cannot be written = %v, want ErrClosed", err)
	}
	for g := 0; g < groups; g++ {
		// WaitApplied journals nothing: only the host can have told group g.
		if err := rt.Group(g).WaitApplied(short, 1<<30); !errors.Is(err, smr.ErrClosed) {
			t.Fatalf("group %d after the interval fsync failed: %v, want ErrClosed", g, err)
		}
	}
}

// sentTo records what process 2 tries to send.
type sentTo struct {
	mu   sync.Mutex
	sent []consensus.Message
}

func (*sentTo) Self() consensus.ProcessID { return 2 }
func (*sentTo) Stats() transport.Stats    { return transport.Stats{} }
func (*sentTo) Close() error              { return nil }

func (s *sentTo) Send(_ consensus.ProcessID, msg consensus.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent = append(s.sent, msg)
	return nil
}

// TestHandlerDropsMalformedProcessMessages feeds Runtime.Handler() the
// process-level kinds as an outsider could forge them: nothing panics, a
// Status naming the wrong number of groups sets off no catch-up, and a
// heartbeat from outside the membership moves no leader.
func TestHandlerDropsMalformedProcessMessages(t *testing.T) {
	const groups = 4
	rt, err := shard.New(shard.Options{
		Groups: groups, Tick: time.Hour, // no clock fires: p2 hears only the test
		Config: consensus.Config{ID: 2, N: 3, F: 1, E: 1, Delta: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tr := &sentTo{}
	rt.BindTransport(tr)
	h := rt.Handler()
	ahead := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 7
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		from     consensus.ProcessID
		msg      consensus.Message
		requests int // catch-up requests it sets off
	}{
		{"status, no groups", 1, &shard.Status{}, 0},
		{"status, one group short", 1, &shard.Status{Applied: ahead(groups - 1)}, 0},
		{"status, one group over", 1, &shard.Status{Applied: ahead(groups + 1)}, 0},
		{"heartbeat from p-1", -1, &omega.Heartbeat{}, 0},
		{"heartbeat from p3 of 3", 3, &omega.Heartbeat{}, 0},
		{"envelope for group -1", 1, &shard.GroupMessage{Group: -1, InnerKind: smr.KindCatchupRequest}, 0},
		{"envelope for group 4 of 4", 1, &shard.GroupMessage{Group: groups, InnerKind: smr.KindCatchupRequest}, 0},
		{"status, every group ahead", 1, &shard.Status{Applied: ahead(groups)}, groups},
	} {
		tr.mu.Lock()
		tr.sent = nil
		tr.mu.Unlock()
		h(tc.from, tc.msg)
		rt.SyncIO()
		tr.mu.Lock()
		got := len(tr.sent)
		tr.mu.Unlock()
		if got != tc.requests {
			t.Errorf("%s: set off %d sends, want %d", tc.name, got, tc.requests)
		}
		if l := rt.Leader(); l != 0 {
			t.Errorf("%s: leader estimate moved to p%d", tc.name, l)
		}
	}
}
