package smr_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
)

// TestLeaseLocalReadZeroIO is the tentpole acceptance check: a GETL served
// under a valid lease performs zero transport sends and zero WAL appends.
// The protocol tick is an hour, so every background timer (Ω heartbeats,
// status gossip) is dormant and any I/O measured below would be the read
// path's own.
func TestLeaseLocalReadZeroIO(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{
		tick:   time.Hour,
		leases: &smr.LeaseOptions{Duration: time.Hour, Epsilon: 50 * time.Millisecond},
		dur:    durableUnder(t.TempDir(), nil),
	})
	replicas := c.replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv := replicas[0]
	if err := kv.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[0].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	if !replicas[0].HoldsLease() {
		t.Fatal("lease not valid after AcquireLease returned")
	}
	replicas[0].SyncIO()
	time.Sleep(100 * time.Millisecond) // let straggler acks from peers land

	st0 := c.rts[0].TransportStats()
	wal0, _ := c.rts[0].WalStats()

	const reads = 200
	for i := 0; i < reads; i++ {
		v, found, err := kv.GetLinearizable(ctx, "k")
		if err != nil || !found || v != "v" {
			t.Fatalf("GETL %d = %q, %t, %v", i, v, found, err)
		}
	}

	st1 := c.rts[0].TransportStats()
	wal1, _ := c.rts[0].WalStats()
	if st1.Sends != st0.Sends {
		t.Fatalf("lease reads sent %d transport messages, want 0", st1.Sends-st0.Sends)
	}
	if wal1.NextIndex != wal0.NextIndex {
		t.Fatalf("lease reads appended %d WAL records, want 0", wal1.NextIndex-wal0.NextIndex)
	}
	if ls := replicas[0].LeaseStats(); ls.Hits < reads {
		t.Fatalf("lease hits = %d, want >= %d (stats %+v)", ls.Hits, reads, ls)
	}
}

// TestLeaseCrashRestartForgetsLease pins the recovery rule: a replayed own
// grant confers no serving rights (the propose-time anchor died with the
// process), while surviving peers keep refusing their own proposals until
// the crashed holder's lease has conservatively expired.
func TestLeaseCrashRestartForgetsLease(t *testing.T) {
	lo := &smr.LeaseOptions{Duration: 10 * time.Second, Epsilon: 50 * time.Millisecond}
	base := t.TempDir()
	c := newTestCluster(t, 3, 1, 1, procOptions{leases: lo, dur: durableUnder(base, nil)})
	replicas := c.replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv := replicas[0]
	if err := kv.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[0].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	if !replicas[0].HoldsLease() {
		t.Fatal("lease not valid after AcquireLease")
	}
	if err := c.rts[0].Kill(); err != nil {
		t.Logf("kill: %v", err)
	}

	// Restart the holder from its data directory, isolated on a capture
	// transport: recovery replays the grant from the WAL alone.
	rt0, _ := openIsolated(t, 0, filepath.Join(base, "r0"), lo)
	r0 := rt0.Group(0)

	if r0.HoldsLease() {
		t.Fatal("restarted replica still claims the lease — crash-restart must forget serving rights")
	}
	ls := r0.LeaseStats()
	if !ls.Enabled || ls.Valid {
		t.Fatalf("restarted lease stats = %+v, want enabled and not valid", ls)
	}
	if ls.Holder != 0 {
		t.Fatalf("restarted holder = %d, want 0 (the grant record itself must replay)", ls.Holder)
	}
	if _, _, served := r0.LeaseRead("k"); served {
		t.Fatal("restarted replica served a lease read")
	}

	// A surviving peer is still inside the dead holder's guard window: its
	// own proposals must be refused with the holder hint.
	err := replicas[1].Put(ctx, "k", "v2")
	if !errors.Is(err, smr.ErrLeaseHeld) {
		t.Fatalf("peer write during dead holder's guard = %v, want ErrLeaseHeld", err)
	}
}

// TestLeaseTakeoverRevokesPreviousHolder drives a full handover: a second
// replica grants itself the lease (grant proposals are exempt from the
// refusal gate precisely so takeover is possible), which revokes the first
// holder at every replica, and the regression bite — the deposed holder
// must never again serve a local read, and its own writes are refused with
// the new holder's hint rather than served stale.
func TestLeaseTakeoverRevokesPreviousHolder(t *testing.T) {
	replicas := newTestCluster(t, 3, 1, 1, procOptions{
		leases: &smr.LeaseOptions{Duration: 400 * time.Millisecond, Epsilon: 40 * time.Millisecond},
	}).replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv0 := replicas[0]
	if err := kv0.Put(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[0].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	if !replicas[0].HoldsLease() {
		t.Fatal("p0 lease not valid")
	}

	// A takeover grant proposed while p0's guard is still active at p1 can
	// anchor an empty serving window (the window is clipped to start at the
	// guard's end but still expires Duration-ε after propose time), so —
	// like the AutoGrant renewal — keep re-granting until one lands
	// after the guard lapses and actually opens.
	deadline := time.Now().Add(5 * time.Second)
	for !replicas[1].HoldsLease() {
		if time.Now().After(deadline) {
			t.Fatalf("p1 never became leaseholder (stats %+v)", replicas[1].LeaseStats())
		}
		if err := replicas[1].AcquireLease(ctx); err != nil {
			t.Fatalf("takeover grant: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The takeover grant applied at p0 revoked its lease: no local serving.
	if replicas[0].HoldsLease() {
		t.Fatal("p0 still claims the lease after p1's grant applied")
	}
	if _, _, served := replicas[0].LeaseRead("k"); served {
		t.Fatal("revoked holder served a lease read")
	}
	if h := replicas[0].LeaseStats().Holder; h != 1 {
		t.Fatalf("p0 records holder %d, want 1", h)
	}

	// And p0's own traffic is refused toward the new holder, not executed.
	err := kv0.Put(ctx, "k", "stale-overwrite")
	if !errors.Is(err, smr.ErrLeaseHeld) || !errors.Is(err, smr.ErrRejected) {
		t.Fatalf("write at deposed holder = %v, want ErrLeaseHeld (definite)", err)
	}
	gctx, gcancel := context.WithTimeout(ctx, 2*time.Second)
	defer gcancel()
	_, _, err = kv0.GetLinearizable(gctx, "k")
	if !errors.Is(err, smr.ErrLeaseHeld) {
		t.Fatalf("GETL at deposed holder = %v, want ErrLeaseHeld redirect hint", err)
	}
}

// TestLeaseExpiryUnderFsyncStall pins that a holder whose I/O stalls
// cannot serve past expiry: the lease lapses on the local monotonic clock
// regardless of the stuck WAL, and the fallback read barrier (which needs
// durability) blocks rather than answering from possibly-stale state.
//
// Expiry is driven through the LeaseOptions.Now fake clock, not a
// wall-clock sleep: advancing the shared clock past Duration−ε is exact
// (no scheduling jitter can land the test short of or long past the
// window) and costs no wall time.
func TestLeaseExpiryUnderFsyncStall(t *testing.T) {
	var stall atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	hook := func() {
		if stall.Load() {
			<-release
		}
	}
	// All three replicas share one fake lease clock (zero skew; ε still
	// guards the protocol's real-skew story elsewhere).
	var fakeClock atomic.Int64
	replicas := newTestCluster(t, 3, 1, 1, procOptions{
		leases: &smr.LeaseOptions{
			Duration: 300 * time.Millisecond,
			Epsilon:  30 * time.Millisecond,
			Now:      func() time.Duration { return time.Duration(fakeClock.Load()) },
		},
		dur: durableUnder(t.TempDir(), hook),
	}).replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	kv := replicas[0]
	if err := kv.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[0].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}

	stall.Store(true)
	// Inside the window the lease read needs no I/O, stalled or not.
	if v, found, err := kv.GetLinearizable(ctx, "k"); err != nil || !found || v != "v" {
		t.Fatalf("GETL during stall inside window = %q, %t, %v", v, found, err)
	}

	fakeClock.Store(int64(350 * time.Millisecond)) // past Duration−ε on p0's clock
	if replicas[0].HoldsLease() {
		t.Fatal("lease still valid past expiry")
	}
	if _, _, served := replicas[0].LeaseRead("k"); served {
		t.Fatal("expired lease served a read")
	}
	// The fallback barrier needs a no-op round, whose vote record is stuck
	// behind the stalled fsync: the read must block behind the barrier,
	// never answer from possibly-stale state. (The shared round runs on a
	// detached 30s budget, so assert non-completion rather than waiting
	// out a caller deadline.)
	type getlResult struct {
		v   string
		err error
	}
	done := make(chan getlResult, 1)
	go func() {
		v, _, err := kv.GetLinearizable(ctx, "k")
		done <- getlResult{v, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("GETL completed past expiry with fsyncs stalled (= %q, %v) — barrier was skipped", res.v, res.err)
	case <-time.After(500 * time.Millisecond):
	}
	if ls := replicas[0].LeaseStats(); ls.Expired == 0 {
		t.Fatalf("expiry not counted: %+v", ls)
	}
	stall.Store(false)
	unblock()
	// Once fsyncs resume the barrier completes and the read is served.
	if res := <-done; res.err != nil || res.v != "v" {
		t.Fatalf("GETL after fsync release = %q, %v", res.v, res.err)
	}
}

// TestRefusalWaitsForNoCommit pins that the verdicts which promise nothing a
// journal record backs — a write the lease gate refuses before proposing, a
// wait on a slot already applied — return while the process's fsync is
// stalled, instead of queueing behind the stalled commit for another step's
// record.
func TestRefusalWaitsForNoCommit(t *testing.T) {
	var stall atomic.Bool
	release, stalled := make(chan struct{}), make(chan struct{}, 1)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	hook := func() {
		if stall.Load() {
			select {
			case stalled <- struct{}{}:
			default:
			}
			<-release
		}
	}
	// A frozen lease clock: p1's guard stands at p0 for the whole test.
	replicas := newTestCluster(t, 3, 1, 1, procOptions{
		leases: &smr.LeaseOptions{
			Duration: 300 * time.Millisecond,
			Epsilon:  30 * time.Millisecond,
			Now:      func() time.Duration { return 0 },
		},
		dur: durableUnder(t.TempDir(), hook),
	}).replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := replicas[1].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	for replicas[0].LeaseStats().Holder != 1 {
		if ctx.Err() != nil {
			t.Fatalf("p0 never applied p1's grant (stats %+v)", replicas[0].LeaseStats())
		}
		time.Sleep(time.Millisecond)
	}
	applied := replicas[0].Applied()

	// p1's write makes p0 journal its vote, and p0's commit of it hangs.
	stall.Store(true)
	go func() { _ = replicas[1].Put(ctx, "k", "v") }()
	select {
	case <-stalled:
	case <-ctx.Done():
		t.Fatal("p0 never fsynced its vote for p1's write")
	}

	wctx, wcancel := context.WithTimeout(ctx, 2*time.Second)
	defer wcancel()
	if err := replicas[0].Put(wctx, "x", "y"); !errors.Is(err, smr.ErrLeaseHeld) {
		t.Fatalf("write at p0 under p1's guard, fsync stalled = %v, want ErrLeaseHeld at once", err)
	}
	if err := replicas[0].WaitApplied(wctx, applied-1); err != nil {
		t.Fatalf("wait on applied slot %d, fsync stalled = %v, want nil at once", applied-1, err)
	}
}

// TestLeaseFencedChunk builds the race fencing exists for, step by step on an
// isolated p0 with a frozen lease clock: p0 proposes while no lease is live,
// and p1's grant wins a slot below p0's proposals before they decide. p0 has
// A alone in slot a (Execute) and one batcher chunk, a Put B and a
// GetLinearizable, in slot a+1; the test is the rest of the cluster and decides
// slot a for the grant and slot a+1 for the chunk. p0 then applies its own chunk
// inside p1's guard: B's ack is downgraded to ErrLeaseFenced with B applied;
// the read that shared the chunk is refused toward the holder (p1 serves lease
// reads since it applied its grant and may not have applied the chunk yet, so
// returning B here could be contradicted by p1's next read); and A, which lost
// its slot, is refused toward the holder before it is proposed again.
func TestLeaseFencedChunk(t *testing.T) {
	rt, tr := openIsolated(t, 0, "", &smr.LeaseOptions{
		Duration: time.Second, Now: func() time.Duration { return 0 },
	})
	r := rt.Group(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	proposed := func(slot int) consensus.Value { return tr.proposed(t, slot) }
	decide := func(slot int, v consensus.Value) { r.Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v})) }

	// A window full of chunks in flight (a cold batcher's: nothing has
	// committed yet) keeps the batcher from launching: B and the read's no-op
	// queue behind it and are cut together when it resolves.
	const a = smr.MaxBatchDepth
	errW, errA, errB := make(chan error, a), make(chan error, 1), make(chan error, 1)
	var ws []consensus.Value
	for slot := 0; slot < a; slot++ {
		go func() { errW <- r.Put(ctx, fmt.Sprintf("w%d", slot), "vw") }()
		ws = append(ws, proposed(slot))
	}
	go func() {
		_, err := r.Execute(ctx, smr.Command{Op: smr.OpPut, Key: "a", Val: "va"})
		errA <- err
	}()
	proposed(a)
	go func() { errB <- r.Put(ctx, "b", "vb") }()
	type getl struct {
		v   string
		ok  bool
		err error
	}
	read := make(chan getl, 1)
	go func() {
		v, ok, err := r.GetLinearizable(ctx, "b")
		read <- getl{v, ok, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); r.QueuedCommands() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d commands queued behind the window in flight, want B and the read's no-op", r.QueuedCommands())
		}
	}
	for slot, w := range ws {
		decide(slot, w)
		if err := <-errW; err != nil {
			t.Fatalf("Put before any lease: %v", err)
		}
	}
	chunk := proposed(a + 1)
	if cmd, err := smr.DecodeCommand(chunk); err != nil || cmd.Op != smr.OpBatch || len(cmd.Subs) != 2 {
		t.Fatalf("slot %d carries %+v (%v), want one chunk of B and a no-op", a+1, cmd, err)
	}

	grant, err := smr.Command{ID: "p1-1", Op: smr.OpLeaseGrant, Key: "1", Val: strconv.FormatInt(int64(time.Second), 10)}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decide(a, grant)
	decide(a+1, chunk)

	if err := <-errB; !errors.Is(err, smr.ErrLeaseFenced) {
		t.Fatalf("B, applied inside p1's guard, was acknowledged with %v, want ErrLeaseFenced", err)
	}
	if v, ok := r.Get("b"); !ok || v != "vb" {
		t.Fatalf("fenced B is not applied: b=%q,%t", v, ok)
	}
	var held *smr.LeaseHeldError
	if got := <-read; !errors.Is(got.err, smr.ErrLeaseHeld) || !errors.As(got.err, &held) || held.Holder != 1 {
		t.Fatalf("the read in B's chunk = %q,%t,%v, want ErrLeaseHeld naming p1", got.v, got.ok, got.err)
	}
	if err := <-errA; !errors.Is(err, smr.ErrLeaseHeld) {
		t.Fatalf("A lost its slot to the grant and was retried with %v, want ErrLeaseHeld", err)
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("refused A is applied")
	}
	if ls := r.LeaseStats(); ls.Grants != 1 || ls.Fenced != 1 || ls.Refused != 2 {
		t.Fatalf("lease stats %+v, want one grant, one fenced chunk, A and the read refused", ls)
	}
}

// proposed waits for the process's Propose in slot and returns the value in it.
func (c *captureTr) proposed(t *testing.T, slot int) consensus.Value {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		for _, s := range c.sent {
			if sm, ok := s.msg.(*smr.SlotMessage); ok && sm.Slot == slot && sm.InnerKind == core.KindPropose {
				var p core.ProposeMsg
				if err := p.DecodeBody(sm.InnerBody); err != nil {
					t.Fatal(err)
				}
				c.mu.Unlock()
				return p.Value
			}
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("p%d never proposed in slot %d", c.self, slot)
		}
	}
}

// holdTr is a capture transport whose Send, once armed, blocks until the
// gate opens: the one I/O consumer stops there, and every wake-up queued
// behind that send waits with it.
type holdTr struct {
	*captureTr
	armed   atomic.Bool
	blocked chan struct{} // closed by the first held Send
	gate    chan struct{}
	once    sync.Once
}

func (h *holdTr) Send(to consensus.ProcessID, msg consensus.Message) error {
	if h.armed.Load() {
		h.once.Do(func() { close(h.blocked) })
		<-h.gate
	}
	return h.captureTr.Send(to, msg)
}

// TestFencedVerdictSurvivesRetirement: a proposer collects a slot's fenced
// verdict after the slot applied, and by then the slot's record may be gone —
// retention follows the peers, and a group whose peers keep up retires a slot
// as soon as it has applied. p0 proposes B in slot 1 while no lease is live,
// p1's grant wins slot 0, and B applies inside p1's guard. The test holds the
// outbox so that the wake-up cannot reach B's proposer, retires the slot
// (Compact(0)), and lets go: the ack must still be ErrLeaseFenced. At the
// parent the proposer looked the mark up in the slot record, found none, and
// acknowledged the write as ordered before the holder's reads.
func TestFencedVerdictSurvivesRetirement(t *testing.T) {
	rt, tr := openIsolated(t, 0, "", &smr.LeaseOptions{
		Duration: time.Second, Now: func() time.Duration { return 0 },
	})
	hold := &holdTr{captureTr: tr, blocked: make(chan struct{}), gate: make(chan struct{})}
	var open sync.Once
	release := func() { open.Do(func() { close(hold.gate) }) }
	defer release() // never leave the I/O consumer wedged
	rt.BindTransport(hold)
	r := rt.Group(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	decide := func(slot int, v consensus.Value) { r.Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v})) }

	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := r.Execute(ctx, smr.Command{Op: smr.OpPut, Key: "a", Val: "va"})
		errA <- err
	}()
	tr.proposed(t, 0)
	go func() { errB <- r.Put(ctx, "b", "vb") }()
	b := tr.proposed(t, 1)
	grant, err := smr.Command{ID: "p1-1", Op: smr.OpLeaseGrant, Key: "1", Val: strconv.FormatInt(int64(time.Second), 10)}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decide(0, grant)
	if err := <-errA; !errors.Is(err, smr.ErrLeaseHeld) {
		t.Fatalf("A lost its slot to the grant and was retried with %v, want ErrLeaseHeld", err)
	}

	// A 1B for a slot nobody uses: its Send is where the consumer stops.
	hold.armed.Store(true)
	r.Handle(1, slotMsg(t, 9, &core.OneA{Ballot: 4}))
	<-hold.blocked
	decide(1, b)
	if got := r.Applied(); got != 2 {
		t.Fatalf("applied %d slots, want the grant and B", got)
	}
	if floor := r.Compact(0); floor != 2 {
		t.Fatalf("floor %d after Compact(0) at 2 applied", floor)
	}
	if _, ok := r.LogValue(1); ok {
		t.Fatal("B's slot is still in the table: the test retired nothing")
	}
	select {
	case err := <-errB:
		t.Fatalf("B was acknowledged (%v) while the outbox was held", err)
	default:
	}
	hold.armed.Store(false)
	release()
	if err := <-errB; !errors.Is(err, smr.ErrLeaseFenced) {
		t.Fatalf("B, applied inside p1's guard in a slot since retired, was acknowledged with %v, want ErrLeaseFenced", err)
	}
	if v, ok := r.Get("b"); !ok || v != "vb" {
		t.Fatalf("fenced B is not applied: b=%q,%t", v, ok)
	}
}

// TestReadCoalescingSharesRounds pins that lease-less GETLs coalesce in the
// write batcher, with leases off entirely: while one GETL's no-op is pinned
// at the fsync gate, 31 more GETLs arrive; releasing the gate must retire all
// 32 with exactly one more slot (the first slot's no-op does not cover readers
// that arrived after it was proposed, so they share a second one).
func TestReadCoalescingSharesRounds(t *testing.T) {
	var stall atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	hook := func() {
		if stall.Load() {
			<-release
		}
	}
	replicas := newTestCluster(t, 3, 1, 1, procOptions{dur: durableUnder(t.TempDir(), hook)}).replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := replicas[0]
	put := func() {
		if err := kv.Put(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	// One loopback commit in many reads as distance and lets chunks overlap;
	// here the second chunk has to wait for the first.
	for put(); replicas[0].BatchStats().Depth > 1; put() {
	}
	replicas[0].SyncIO()
	base := replicas[0].BatchStats()
	applied := replicas[0].Applied()

	stall.Store(true)
	errs := make(chan error, 32)
	getl := func() {
		_, _, err := kv.GetLinearizable(ctx, "k")
		errs <- err
	}
	go getl()
	// Batches moves when the flusher cuts the chunk, just before it proposes
	// it: poll until the first no-op is provably in flight.
	deadline := time.Now().Add(5 * time.Second)
	for replicas[0].BatchStats().Batches != base.Batches+1 {
		if time.Now().After(deadline) {
			t.Fatal("first read barrier never launched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 31; i++ {
		go getl()
	}
	time.Sleep(200 * time.Millisecond) // joiners only need a mutex append
	stall.Store(false)
	unblock()

	for i := 0; i < 32; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("coalesced GETL: %v", err)
		}
	}
	st := replicas[0].BatchStats()
	if got := st.Batches - base.Batches; got != 2 {
		t.Fatalf("batches = %d, want 2 (stats %+v)", got, st)
	}
	if got := st.Cmds - base.Cmds; got != 32 {
		t.Fatalf("batched commands = %d, want 32 (stats %+v)", got, st)
	}
	if got := replicas[0].Applied() - applied; got != 2 {
		t.Fatalf("32 GETLs took %d slots, want 2", got)
	}
}

// TestGETLStormUnderRace hammers the lease read path from 64 goroutines
// with concurrent writers at the holder and readers at a non-holder; run
// under -race in CI, it is the data-race net over the lease table, the
// barrier through the batcher, and counters.
func TestGETLStormUnderRace(t *testing.T) {
	replicas := newTestCluster(t, 3, 1, 1, procOptions{
		leases: &smr.LeaseOptions{Duration: 10 * time.Second, Epsilon: 50 * time.Millisecond},
	}).replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv0 := replicas[0]
	kv1 := replicas[1]
	if err := kv0.Put(ctx, "k", "v0"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[0].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 64, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g%8 == 0:
					// Writers at the holder keep the applied state moving.
					if err := kv0.Put(ctx, "k", fmt.Sprintf("v%d-%d", g, i)); err != nil {
						errs <- fmt.Errorf("put: %w", err)
					}
				case g%8 == 1:
					// Readers at a guarded non-holder: served after a
					// barrier or refused toward the holder — never racy.
					if _, _, err := kv1.GetLinearizable(ctx, "k"); err != nil && !errors.Is(err, smr.ErrLeaseHeld) {
						errs <- fmt.Errorf("getl@p1: %w", err)
					}
				default:
					if v, found, err := kv0.GetLinearizable(ctx, "k"); err != nil || !found || v == "" {
						errs <- fmt.Errorf("getl@p0 = %q, %t, %w", v, found, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ls := replicas[0].LeaseStats(); ls.Hits == 0 {
		t.Fatalf("storm never hit the lease: %+v", ls)
	}
}

// TestLeaseHeldRedirectMovesClientToHolder wires the whole tier-3 path: a
// PreferLeader session client dialed at a guarded non-holder gets the
// "lease held by replica N" refusal, re-sticks to the named holder, and
// its GETLs become local lease hits there. The legacy client classifies
// the same refusal as a definite rejection.
func TestLeaseHeldRedirectMovesClientToHolder(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{
		leases: &smr.LeaseOptions{Duration: 10 * time.Second, Epsilon: 50 * time.Millisecond},
	})
	replicas := c.replicas()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := replicas[0].Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := replicas[1].AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for replicas[0].LeaseStats().Holder != 1 {
		if time.Now().After(deadline) {
			t.Fatal("p0 never applied p1's grant")
		}
		time.Sleep(2 * time.Millisecond)
	}

	addrs, _, cleanup := serveCluster(t, c)
	defer cleanup()

	sc, err := smr.NewSessionClient(addrs, smr.SessionOptions{
		Timeout: 10 * time.Second, Depth: 8, PreferLeader: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// The client starts on addrs[0]; p0's Ω hint is itself (lowest id), so
	// only the lease refusal can move the session.
	if v, err := sc.GetLinearizable("k"); err != nil || v != "v" {
		t.Fatalf("GETL through redirect = %q, %v", v, err)
	}
	if got := sc.Proxy(); got != addrs[1] {
		t.Fatalf("client proxy = %s, want the leaseholder %s", got, addrs[1])
	}
	if hits := replicas[1].LeaseStats().Hits; hits == 0 {
		t.Fatal("redirected GETL did not hit the holder's lease")
	}
	// And the STATS line at the holder now carries the lease suffix.
	stats, err := sc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !containsField(stats, "lease_valid=true") {
		t.Fatalf("STATS missing lease suffix: %q", stats)
	}

	// A client pinned to the guarded non-holder (one address, no
	// PreferLeader to follow the hint): the refusal is a definite
	// rejection carrying the holder in its text.
	pinned := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 10 * time.Second, Depth: 1})
	if _, err := pinned.GetLinearizable("k"); err == nil || !errors.Is(err, smr.ErrRejected) {
		t.Fatalf("pinned GETL at guarded non-holder = %v, want definite rejection", err)
	}
}

// containsField reports whether a space-separated stats line carries the
// given key=value field.
func containsField(line, field string) bool {
	for _, f := range strings.Fields(line) {
		if f == field {
			return true
		}
	}
	return false
}
