package shard_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/omega"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/smr/slotlog"
	"repro/internal/transport"
)

// TestLogFailurePoisonsEveryGroup: four groups journal to one log, and a log
// that can no longer be made durable fails every group's writes, not only
// those of the group whose write found out. Process 0's log tears under group
// 0's first record; a write into each other group then fails with ErrClosed
// and is never acknowledged.
func TestLogFailurePoisonsEveryGroup(t *testing.T) {
	const groups = 4
	base := t.TempDir()
	rts, mesh := bootClusterWith(t, groups, func(i int) *shard.Durability {
		d := &shard.Durability{Dir: filepath.Join(base, fmt.Sprintf("p%d", i)), SnapshotEvery: -1}
		if i == 0 {
			d.FailpointLimit = 20 // the segment header fits, no record does
		}
		return d
	})
	defer mesh.Close()
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	// keys[g] routes to group g.
	var keys [groups]string
	for i, found := 0, 0; found < groups; i++ {
		k := fmt.Sprintf("key-%d", i)
		if g := rts[0].Router().Group(k); keys[g] == "" {
			keys[g], found = k, found+1
		}
	}
	c, cancel := context.WithTimeout(ctx(t), 5*time.Second)
	defer cancel()
	for g, k := range keys {
		if err := rts[0].Put(c, k, "torn"); !errors.Is(err, smr.ErrClosed) {
			t.Fatalf("put into group %d of a log that cannot be written = %v, want ErrClosed", g, err)
		}
	}
	for g, k := range keys {
		if v, ok := rts[0].Get(k); ok {
			t.Fatalf("group %d applied %q from a log that cannot be written", g, v)
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
		{"envelope for group -1", 1, &shard.GroupMessage{Group: -1, InnerKind: slotlog.KindCatchupRequest}, 0},
		{"envelope for group 4 of 4", 1, &shard.GroupMessage{Group: groups, InnerKind: slotlog.KindCatchupRequest}, 0},
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
