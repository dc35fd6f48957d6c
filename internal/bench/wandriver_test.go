package bench

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/transport"
	"repro/internal/wan"
)

// probe is a minimal protocol for the driver's plumbing: Start returns what
// the test gave it, Propose broadcasts a shout and, when decides is set,
// decides; Deliver counts.
type probe struct {
	start     []consensus.Effect
	decides   bool
	ticks     chan consensus.TimerID
	delivered int
}

func (p *probe) ID() consensus.ProcessID           { return 0 }
func (p *probe) Start() []consensus.Effect         { return p.start }
func (p *probe) Decision() (consensus.Value, bool) { return consensus.None, false }
func (p *probe) Deliver(consensus.ProcessID, consensus.Message) []consensus.Effect {
	p.delivered++
	return nil
}
func (p *probe) Propose(v consensus.Value) []consensus.Effect {
	effs := []consensus.Effect{consensus.Broadcast{Msg: shout{}}}
	if p.decides {
		effs = append(effs, consensus.Decide{Value: v})
	}
	return effs
}
func (p *probe) Tick(t consensus.TimerID) []consensus.Effect {
	p.ticks <- t
	return nil
}

type shout struct{}

func (shout) Kind() string                 { return "test.shout" }
func (shout) AppendBody(dst []byte) []byte { return dst }
func (shout) DecodeBody([]byte) error      { return nil }

// sendCounter counts the sends that leave a driver.
type sendCounter struct {
	transport.Transport
	sent atomic.Int64
}

func (c *sendCounter) Send(to consensus.ProcessID, msg consensus.Message) error {
	c.sent.Add(1)
	return c.Transport.Send(to, msg)
}

// startProbe starts p on slot 0 of an n-slot Mesh fabric and counts what it
// sends.
func startProbe(t *testing.T, n int, p *probe, persist func() error) (*driver, *sendCounter) {
	t.Helper()
	fab, err := cluster.NewFabric(n, nil, wan.Topology{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Close)
	p.ticks = make(chan consensus.TimerID, 16)
	tr := &sendCounter{Transport: fab.Transport(0)}
	d := newDriver(n, tr, time.Millisecond, p, persist)
	fab.Attach(0, d.Handle)
	t.Cleanup(d.Close)
	d.Start()
	return d, tr
}

// A timer restarted or stopped never fires in its old generation.
func TestDriverStaleTimerNeverFires(t *testing.T) {
	p := &probe{start: []consensus.Effect{
		consensus.StartTimer{Timer: "a", After: 1},
		consensus.StartTimer{Timer: "b", After: 1},
		consensus.StopTimer{Timer: "b"},
		consensus.StartTimer{Timer: "c", After: 1},
		consensus.StartTimer{Timer: "c", After: 100_000},
	}}
	startProbe(t, 1, p, nil)
	select {
	case got := <-p.ticks:
		if got != "a" {
			t.Fatalf("first tick = %s, want a", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("armed timer never fired")
	}
	select {
	case got := <-p.ticks:
		t.Fatalf("stale timer %s fired", got)
	case <-time.After(50 * time.Millisecond):
	}
}

// A message a process sends itself is delivered within the step, never
// through the transport.
func TestDriverDeliversSelfInline(t *testing.T) {
	p := &probe{start: []consensus.Effect{
		consensus.Send{To: 0, Msg: shout{}},
		consensus.Broadcast{Msg: shout{}, Self: true},
		consensus.Broadcast{Msg: shout{}},
	}}
	_, tr := startProbe(t, 2, p, nil)
	if p.delivered != 2 || tr.sent.Load() != 2 {
		t.Fatalf("after Start: %d self-deliveries (want 2), %d sends (want 2, one per broadcast to the peer)",
			p.delivered, tr.sent.Load())
	}
}

func TestDriverWaitDecisionAlreadyDecided(t *testing.T) {
	d, _ := startProbe(t, 1, &probe{decides: true}, nil)
	d.Propose(consensus.IntValue(9))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if v, err := d.WaitDecision(ctx); err != nil || v != consensus.IntValue(9) {
		t.Fatalf("WaitDecision = %v, %v", v, err)
	}
}

func TestDriverWaitDecisionContextCancel(t *testing.T) {
	d, _ := startProbe(t, 1, &probe{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if v, err := d.WaitDecision(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitDecision without a decision = %v, %v", v, err)
	}
}

// A driver closed under a waiter fails it instead of reporting a decision,
// and stays inert.
func TestDriverCloseFailsWaiters(t *testing.T) {
	d, _ := startProbe(t, 1, &probe{decides: true}, nil)
	type result struct {
		v   consensus.Value
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := d.WaitDecision(context.Background())
		done <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond)
	d.Close()
	select {
	case r := <-done:
		if !errors.Is(r.err, errDriverClosed) {
			t.Fatalf("waiter released by Close got %v, %v; want %v", r.v, r.err, errDriverClosed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter leaked across Close")
	}
	d.Propose(consensus.IntValue(1))
	d.Close()
	if v, err := d.WaitDecision(context.Background()); !errors.Is(err, errDriverClosed) {
		t.Fatalf("WaitDecision after Close and Propose = %v, %v", v, err)
	}
}

// The hook runs before the step's sends leave: when it runs, nothing of its
// own step has been sent.
func TestDriverPersistsBeforeFlush(t *testing.T) {
	var steps, early atomic.Int64
	var d *driver
	var tr *sendCounter // nil during Start, which sends nothing
	d, tr = startProbe(t, 2, &probe{}, func() error {
		// Hook call k is Start (k = 1) or Propose k−1, which follows k−2
		// broadcasts to the one peer.
		if k := steps.Add(1); tr != nil && tr.sent.Load() > max(k-2, 0) {
			early.Add(1)
		}
		return nil
	})
	d.Propose(consensus.IntValue(1))
	d.Propose(consensus.IntValue(2))
	if steps.Load() != 3 || early.Load() != 0 || tr.sent.Load() != 2 {
		t.Fatalf("hook ran %d times (want 3: Start and two Proposes), %d of them after its step's send; %d sends (want 2)",
			steps.Load(), early.Load(), tr.sent.Load())
	}
}

// A failing hook drops the step's sends and fails every waiter with its
// error, even for a decision the step took: it may not be durable.
func TestDriverPersistFailureDropsOutbound(t *testing.T) {
	boom := errors.New("disk full")
	var failing atomic.Bool
	d, tr := startProbe(t, 2, &probe{decides: true}, func() error {
		if failing.Load() {
			return boom
		}
		return nil
	})
	failing.Store(true)
	d.Propose(consensus.IntValue(7))
	if n := tr.sent.Load(); n != 0 {
		t.Fatalf("%d messages escaped an unjournaled step", n)
	}
	if v, err := d.WaitDecision(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("WaitDecision after a failed hook = %v, %v; want %v", v, err, boom)
	}
}

// One decision of the paper's protocol over a loopback TCP fabric: the path
// the full F10 sweep takes.
func TestDriverDecidesOverTCP(t *testing.T) {
	const n, f, e, proxy = 3, 1, 1, 1
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	fab, err := cluster.NewFabric(n, codec, wan.Topology{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	drivers := make([]*driver, n)
	for i := range drivers {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		p := protocols.CoreObjectFactory(cfg, consensus.FixedLeader(proxy))
		drivers[i] = newDriver(n, fab.Transport(i), time.Millisecond, p, nil)
		fab.Attach(i, drivers[i].Handle)
		defer drivers[i].Close()
	}
	for _, d := range drivers {
		d.Start()
	}
	drivers[proxy].Propose(consensus.IntValue(7))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, d := range drivers {
		if v, err := d.WaitDecision(ctx); err != nil || v != consensus.IntValue(7) {
			t.Fatalf("process %d: %v, %v", i, v, err)
		}
	}
}
