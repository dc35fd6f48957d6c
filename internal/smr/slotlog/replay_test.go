package slotlog_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
	"repro/internal/smr/slotlog"
	"repro/internal/transport"
)

var writeSeeds = flag.Bool("slotlog.seeds", false, "rewrite FuzzSlotLog's seed corpus from the replay capture")

// life is what one log of the recorded process took and returned, each input
// and its effects in their byte form (slotlog's test codec). kinds counts
// what it took and did (kindOf, grantKinds); autos are the tokens of its
// auto-grants, grants the slot each grant of its was first proposed in.
type life struct {
	log     *slotlog.Log
	inputs  [][]byte
	effects [][]byte
	kinds   map[string]int
	autos   map[int64]bool
	grants  map[string]int
}

// recorder captures the inputs and effects of process id's logs, one life per
// log: a restart builds a new one.
type recorder struct {
	id    consensus.ProcessID
	mu    sync.Mutex
	lives []*life
}

func (r *recorder) observe(l *slotlog.Log, in slotlog.Input) func(slotlog.Effects) {
	if l.Config().ID != r.id {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lives) == 0 || r.lives[len(r.lives)-1].log != l {
		r.lives = append(r.lives, &life{log: l, kinds: map[string]int{}, autos: map[int64]bool{}, grants: map[string]int{}})
	}
	lf := r.lives[len(r.lives)-1]
	lf.inputs = append(lf.inputs, slotlog.AppendInput(nil, in))
	lf.kinds[kindOf(in)]++
	return func(eff slotlog.Effects) {
		r.mu.Lock()
		defer r.mu.Unlock()
		lf.effects = append(lf.effects, slotlog.AppendEffects(nil, eff))
		lf.grantKinds(in, eff)
	}
}

// seen reports whether any life took or did kind.
func (r *recorder) seen(kind string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, lf := range r.lives {
		if lf.kinds[kind] > 0 {
			return true
		}
	}
	return false
}

// grantKinds counts what one step did with the life's lease grants: an
// auto-grant proposed at a fire, one applied, and a grant proposed again in
// another slot after it lost its own.
func (lf *life) grantKinds(in slotlog.Input, eff slotlog.Effects) {
	if in.Kind == slotlog.Fire && eff.Token != 0 {
		lf.autos[eff.Token] = true
		lf.kinds["auto-grant"]++
	}
	for _, v := range eff.Verdicts {
		if lf.autos[v.Token] && v.Outcome == slotlog.Applied {
			lf.kinds["auto-grant applied"]++
		}
	}
	for _, s := range eff.Sends {
		sm, ok := s.Msg.(*slotlog.SlotMessage)
		var p core.ProposeMsg
		if !ok || sm.InnerKind != core.KindPropose || p.DecodeBody(sm.InnerBody) != nil {
			continue
		}
		if cmd, err := slotlog.DecodeCommand(p.Value); err == nil && cmd.Op == slotlog.OpLeaseGrant {
			if first, ok := lf.grants[cmd.ID]; !ok {
				lf.grants[cmd.ID] = sm.Slot
			} else if first != sm.Slot {
				lf.grants[cmd.ID] = sm.Slot
				lf.kinds["grant placed again"]++
			}
		}
	}
}

// kindOf names an input for the coverage check.
func kindOf(in slotlog.Input) string {
	switch m := in.Msg.(type) {
	case *slotlog.CatchupReply:
		if m.Store != nil {
			return "snapshot catch-up"
		}
		return "suffix catch-up"
	case *slotlog.SlotMessage:
		return "slot message"
	}
	if in.Kind == slotlog.Recover && in.Record.Kind == slotlog.RecSnap {
		return "restore"
	}
	return [...]string{"", "propose", "wait", "cancel", "deliver", "fire", "gossip", "recover", "open", "retire", "halt"}[in.Kind]
}

// TestReplayIsByteForByte records every input process 1's log takes during a
// durable run of an n=5 group — two proposers contending for slots, a ballot
// timer firing while process 1's links are cut, the applied-index gossip, a
// kill and a WAL recovery behind a log suffix, another behind a snapshot —
// and process 0's during a run of an n=3 group with leases and auto-grant on,
// and feeds each life's inputs to a fresh log: the effects must come back the
// same, byte for byte.
func TestReplayIsByteForByte(t *testing.T) {
	rec := &recorder{id: 1}
	slotlog.Observe(rec.observe)
	defer slotlog.Observe(nil)
	c, err := cluster.New(cluster.Options{N: 5, F: 2, E: 2, Dir: t.TempDir(), SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	put := func(p int, k, v string) {
		if err := c.Runtime(p).Put(ctx, k, v); err != nil {
			t.Fatalf("put %s at p%d: %v", k, p, err)
		}
	}
	converge := func() {
		want := c.Runtime(0).Group(0).Applied()
		for deadline := time.Now().Add(20 * time.Second); c.Runtime(1).Group(0).Applied() < want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("p1 stuck at %d applied, p0 at %d", c.Runtime(1).Group(0).Applied(), want)
			}
		}
	}

	// Two proposers, one slot sequence; a store heavier than the tail that
	// the first restart misses, so that the tail is sent as a suffix.
	var wg sync.WaitGroup
	for _, p := range []int{0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				put(p, fmt.Sprintf("c%d-%d", p, i), strings.Repeat("v", 1<<10))
			}
		}()
	}
	wg.Wait()

	// A proposal that cannot leave p1 until its ballot timer has fired.
	c.Fabric().SetFault(func(from, _ consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: from == 1}
	})
	done := make(chan struct{})
	go func() { defer close(done); put(1, "timed", "out") }()
	time.Sleep(100 * time.Millisecond)
	c.Fabric().SetFault(nil)
	<-done

	// Down while the others write: back through its journal, then a log
	// suffix; and again, behind a tail of overwrites heavier than the store,
	// a snapshot.
	for _, behind := range []func(i int){
		func(i int) { put(0, fmt.Sprintf("s%d", i), "v") },
		func(i int) { put(0, "big", strings.Repeat(fmt.Sprint(i%10), 4<<10)) },
	} {
		c.Kill(1)
		for i := 0; i < 30; i++ {
			behind(i)
		}
		if err := c.Restart(1); err != nil {
			t.Fatal(err)
		}
		converge()
	}
	c.Close()
	leased := recordLeases(t)
	slotlog.Observe(nil) // the replays below are not the run's

	seen := map[string]bool{}
	for i, lf := range append(rec.lives, leased.lives...) {
		t.Logf("life %d: %d inputs %v", i, len(lf.inputs), lf.kinds)
		for k := range lf.kinds {
			seen[k] = true
		}
		replay(t, i, lf)
	}
	for _, k := range []string{"propose", "slot message", "fire", "gossip", "restore", "recover", "open", "suffix catch-up", "snapshot catch-up", "halt", "auto-grant", "auto-grant applied", "grant placed again"} {
		if !seen[k] {
			t.Errorf("the runs recorded no %s", k)
		}
	}
	if *writeSeeds {
		saveSeeds(t, rec.lives)
	}
}

// recordLeases records process 0's log in an n=3 group with leases and
// auto-grant on: its first auto-grant applies; then its links out are cut
// until a renewal of its loses its slot to process 1's grant and is proposed
// again, and healed.
func recordLeases(t *testing.T) *recorder {
	rec := &recorder{id: 0}
	slotlog.Observe(rec.observe)
	c, err := cluster.New(cluster.Options{N: 3, F: 1, E: 1, Leases: &smr.LeaseOptions{
		Duration: 300 * time.Millisecond, Epsilon: 30 * time.Millisecond, AutoGrant: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	await := func(kind string) {
		for deadline := time.Now().Add(20 * time.Second); !rec.seen(kind); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("process 0 recorded no %s", kind)
			}
		}
	}
	await("auto-grant applied")
	c.Fabric().SetFault(func(from, _ consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: from == 0}
	})
	await("grant placed again")
	c.Fabric().SetFault(nil)
	return rec
}

// replay feeds lf's inputs to a fresh log and compares the effects.
func replay(t *testing.T, i int, lf *life) {
	t.Helper()
	l := lf.log.Fresh()
	if len(lf.effects) != len(lf.inputs) {
		t.Fatalf("life %d: %d inputs but %d effects", i, len(lf.inputs), len(lf.effects))
	}
	for j, b := range lf.inputs {
		in, _, err := slotlog.NextInput(b)
		if err != nil {
			t.Fatalf("life %d, input %d: %v", i, j, err)
		}
		if got := slotlog.AppendEffects(nil, l.Step(in)); !bytes.Equal(got, lf.effects[j]) {
			t.Fatalf("life %d, input %d (%s): replayed effects differ: %d bytes, recorded %d", i, j, kindOf(in), len(got), len(lf.effects[j]))
		}
	}
}

// saveSeeds writes each life's proposals, deliveries, fires and gossip as a
// seed of FuzzSlotLog, at most maxSeed inputs each.
func saveSeeds(t *testing.T, lives []*life) {
	const maxSeed = 400
	dir := filepath.Join("testdata", "fuzz", "FuzzSlotLog")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, lf := range lives {
		var seed []byte
		for j, n := 0, 0; j < len(lf.inputs) && n < maxSeed; j++ {
			in, _, _ := slotlog.NextInput(lf.inputs[j])
			switch in.Kind {
			case slotlog.Propose, slotlog.Deliver, slotlog.Fire, slotlog.Gossip:
				seed, n = append(seed, lf.inputs[j]...), n+1
			}
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("replay-life%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
