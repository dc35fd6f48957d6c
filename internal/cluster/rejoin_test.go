package cluster_test

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/smr/slotlog"
	"repro/internal/transport"
)

// rejoinKeys sizes the store TestLargeStoreRejoinsOverTCP loads: tier-1 runs
// it just past the transport's 1 MiB frame, `make crash` at ROADMAP item 3's
// 50k keys.
var rejoinKeys = flag.Int("rejoin.keys", 8000, "keys of 200 B TestLargeStoreRejoinsOverTCP loads before the kill")

// TestLargeStoreRejoinsOverTCP is ROADMAP item 3's acceptance for state
// transfer: over loopback TCP, whose frames stop at 1 MiB, a process that was
// down while the others retired every slot it missed comes back to a store
// bigger than a frame — and converges, on snapshot parts of at most 256 KiB,
// with no oversize drop. At the parent the store went out as one frame, the
// transport dropped it every gossip period, and the process never caught up.
func TestLargeStoreRejoinsOverTCP(t *testing.T) {
	const valueSize, partBytes = 200, 256 << 10
	keys := *rejoinKeys
	c, err := cluster.New(cluster.Options{N: 3, F: 1, E: 1, TCP: true, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	val := func(i int) string { return strings.Repeat("v", valueSize-6) + fmt.Sprintf("%06d", i) }
	const writers = 64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < keys; i += writers {
				if err := c.Runtime(0).Put(ctx, key(i), val(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.WaitConverged([]string{key(0), key(keys - 1)}, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Down, and left behind: the survivors write until what p2 has applied is
	// below both their compaction floors, so nobody can send it a log suffix.
	behind := c.Runtime(2).Group(0).Applied()
	c.Kill(2)
	tail := 0
	for floor := 0; floor <= behind; tail++ {
		if err := c.Runtime(0).Put(ctx, "tail", fmt.Sprint(tail)); err != nil {
			t.Fatal(err)
		}
		floor = min(c.Runtime(0).Group(0).Info().CompactFloor, c.Runtime(1).Group(0).Info().CompactFloor)
	}
	for i := 0; i < 500; i++ {
		if err := c.Runtime(0).Put(ctx, "tail", fmt.Sprint(tail+i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("p2 down at %d applied; the survivors wrote %d more slots", behind, tail+500)

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	// What reaches p2 by way of catch-up: the keys and values each frame
	// carries, and what the framing adds to them.
	var frames, payload, framing atomic.Int64
	h := c.Runtime(2).Handler()
	c.Fabric().Attach(2, func(from consensus.ProcessID, msg consensus.Message) {
		var m smr.CatchupReply
		if gm, ok := msg.(*shard.GroupMessage); ok && gm.InnerKind == slotlog.KindCatchupReply && m.DecodeBody(gm.InnerBody) == nil {
			n := 0
			for k, v := range m.Store {
				n += len(k) + len(v)
			}
			for _, v := range m.Decided {
				n += len(v.Data)
			}
			frames.Add(1)
			payload.Store(max(payload.Load(), int64(n)))
			// Two length prefixes a pair, a slot and a key a decision.
			framing.Store(max(framing.Load(), int64(len(gm.InnerBody)-n-6*len(m.Store)-18*len(m.Decided))))
		}
		h(from, msg)
	})
	if err := c.WaitConverged([]string{key(0), key(keys / 2), key(keys - 1), "tail"}, 2*time.Minute); err != nil {
		t.Fatalf("%v; transport: %v", err, c.Fabric().Stats())
	}
	for i := 0; i < keys; i++ {
		if v, ok := c.Runtime(2).Get(key(i)); !ok || v != val(i) {
			t.Fatalf("%s = %.20q…,%t at the process that rejoined", key(i), v, ok)
		}
	}
	if drops := c.Fabric().Stats().DropsByCause[transport.DropOversize]; drops != 0 {
		t.Fatalf("%d frames dropped as oversize", drops)
	}
	info := c.Runtime(2).Group(0).Info()
	sent := c.Runtime(0).Group(0).Info().Catchup.SnapshotParts + c.Runtime(1).Group(0).Info().Catchup.SnapshotParts
	t.Logf("store of %d keys (%d B): %d snapshot parts sent, %d catch-up frames seen at p2, at most %d B of keys and values in one; p2 installed %d",
		keys, keys*(valueSize+10), sent, frames.Load(), payload.Load(), info.Catchup.Installed)
	if want := uint64(keys * valueSize / partBytes); info.Catchup.Installed == 0 || sent < want {
		t.Fatalf("p2 installed %d snapshots from %d parts; a store this size takes at least %d parts", info.Catchup.Installed, sent, want)
	}
	if payload.Load() > partBytes || framing.Load() > 64 {
		t.Fatalf("a catch-up frame carried %d bytes of keys and values (want at most %d), one %d bytes of header", payload.Load(), partBytes, framing.Load())
	}
}
