package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// echoProto is a minimal protocol for simulator tests: it broadcasts a ping
// at start, counts pongs, and decides when it has heard from everyone.
type echoProto struct {
	cfg    consensus.Config
	pongs  map[consensus.ProcessID]struct{}
	dec    consensus.Value
	ticks  int
	events []string
}

type ping struct{}
type pong struct{}

func (ping) Kind() string { return "test.ping" }
func (pong) Kind() string { return "test.pong" }

func (ping) AppendBody(dst []byte) []byte { return dst }
func (pong) AppendBody(dst []byte) []byte { return dst }
func (ping) DecodeBody([]byte) error      { return nil }
func (pong) DecodeBody([]byte) error      { return nil }

func newEcho(cfg consensus.Config) *echoProto {
	return &echoProto{cfg: cfg, pongs: make(map[consensus.ProcessID]struct{}), dec: consensus.None}
}

func (e *echoProto) ID() consensus.ProcessID { return e.cfg.ID }
func (e *echoProto) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.Broadcast{Msg: ping{}, Self: false},
		consensus.StartTimer{Timer: "echo", After: e.cfg.Delta},
	}
}
func (e *echoProto) Propose(consensus.Value) []consensus.Effect { return nil }
func (e *echoProto) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	switch m.(type) {
	case ping:
		e.events = append(e.events, "ping:"+from.String())
		return []consensus.Effect{consensus.Send{To: from, Msg: pong{}}}
	case pong:
		e.events = append(e.events, "pong:"+from.String())
		e.pongs[from] = struct{}{}
		if len(e.pongs) == e.cfg.N-1 && e.dec.IsNone() {
			e.dec = consensus.IntValue(int64(len(e.pongs)))
			return []consensus.Effect{consensus.Decide{Value: e.dec}}
		}
	}
	return nil
}
func (e *echoProto) Tick(consensus.TimerID) []consensus.Effect {
	e.ticks++
	e.events = append(e.events, "tick")
	return nil
}
func (e *echoProto) Decision() (consensus.Value, bool) {
	return e.dec, !e.dec.IsNone()
}

func buildEcho(t *testing.T, n int, opts sim.Options) (*sim.Cluster, []*echoProto) {
	t.Helper()
	cl, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*echoProto, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: 1, E: 1, Delta: opts.Delta}
		protos[i] = newEcho(cfg)
		cl.SetNode(cfg.ID, protos[i])
	}
	return cl, protos
}

func TestSynchronousRoundDelivery(t *testing.T) {
	const n = 3
	delta := consensus.Duration(10)
	cl, protos := buildEcho(t, n, sim.Options{N: n, Delta: delta, Policy: sim.Synchronous{Delta: delta}})
	tr := cl.Run(nil)
	// Pings sent at t=0 arrive at Δ; pongs sent at Δ arrive at 2Δ; every
	// process decides at exactly 2Δ.
	for i := 0; i < n; i++ {
		d, ok := tr.DecisionOf(consensus.ProcessID(i))
		if !ok || d.At != consensus.Time(2*delta) {
			t.Fatalf("p%d decision: %v ok=%v, want at 2Δ", i, d, ok)
		}
	}
	_ = protos
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() []string {
		const n = 4
		delta := consensus.Duration(10)
		cl, protos := buildEcho(t, n, sim.Options{
			N: n, Delta: delta,
			Policy: sim.NewPartialSync(delta, 20, 60, 42),
		})
		cl.ScheduleCrash(2, 15)
		cl.Run(nil)
		var all []string
		for _, p := range protos {
			all = append(all, p.events...)
		}
		return all
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different event sequences:\n%v\n%v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) []string {
		const n = 4
		delta := consensus.Duration(10)
		cl, protos := buildEcho(t, n, sim.Options{
			N: n, Delta: delta,
			Policy: sim.NewPartialSync(delta, 20, 60, seed),
		})
		cl.Run(nil)
		var all []string
		for _, p := range protos {
			all = append(all, p.events...)
		}
		return all
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestCrashedProcessReceivesNothing(t *testing.T) {
	const n = 3
	delta := consensus.Duration(10)
	cl, protos := buildEcho(t, n, sim.Options{N: n, Delta: delta, Policy: sim.Synchronous{Delta: delta}})
	cl.ScheduleCrash(1, 0)
	tr := cl.Run(nil)
	if len(protos[1].events) != 0 {
		t.Fatalf("crashed process handled events: %v", protos[1].events)
	}
	if !tr.Crashed(1) {
		t.Fatal("crash not recorded")
	}
	// Survivors cannot decide (they wait for n−1 pongs) — p1 is silent.
	if _, ok := tr.DecisionOf(0); ok {
		t.Fatal("p0 decided despite missing pong")
	}
}

func TestPriorityFnOrdersSameTickDeliveries(t *testing.T) {
	const n = 3
	delta := consensus.Duration(10)
	cl, err := sim.New(sim.Options{
		N: n, Delta: delta,
		Policy: sim.Synchronous{Delta: delta},
		PriorityFn: func(env sim.Envelope) int {
			// Reverse: higher sender id first.
			return -int(env.From)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*echoProto, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: 1, E: 1, Delta: delta}
		protos[i] = newEcho(cfg)
		cl.SetNode(cfg.ID, protos[i])
	}
	cl.Run(nil)
	// p0's first two events are pings from p2 then p1.
	if len(protos[0].events) < 2 || protos[0].events[0] != "ping:p2" || protos[0].events[1] != "ping:p1" {
		t.Fatalf("priority ordering violated: %v", protos[0].events[:2])
	}
}

func TestSilenceFromSuppressesSends(t *testing.T) {
	const n = 3
	delta := consensus.Duration(10)
	cl, protos := buildEcho(t, n, sim.Options{N: n, Delta: delta, Policy: sim.Synchronous{Delta: delta}})
	// p0's sends are suppressed from t=0: nobody ever gets its ping, and
	// p0 itself still receives and replies... its pongs are suppressed
	// too, so nobody hears from p0 at all.
	cl.SilenceFrom(0, 0)
	tr := cl.Run(nil)
	for _, ev := range protos[1].events {
		if ev == "ping:p0" || ev == "pong:p0" {
			t.Fatalf("p1 heard from silenced p0: %v", protos[1].events)
		}
	}
	// p0 still processes inbound traffic.
	if len(protos[0].events) == 0 {
		t.Fatal("silenced p0 stopped receiving")
	}
	_ = tr
}

func TestTimerRearmReplacesPending(t *testing.T) {
	const n = 1
	delta := consensus.Duration(10)
	cl, err := sim.New(sim.Options{N: n, Delta: delta, Policy: sim.Synchronous{Delta: delta}, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	p := &rearmProto{}
	cl.SetNode(0, p)
	cl.Run(nil)
	// Start arms t1 at +10 and immediately re-arms it at +5: only the
	// re-armed instance fires, once (the stale instance is discarded by
	// its generation check when it pops at t=10).
	if p.fired != 1 {
		t.Fatalf("timer fired %d times, want 1", p.fired)
	}
}

type rearmProto struct {
	fired int
}

func (p *rearmProto) ID() consensus.ProcessID { return 0 }
func (p *rearmProto) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: "t1", After: 10},
		consensus.StartTimer{Timer: "t1", After: 5},
	}
}
func (p *rearmProto) Propose(consensus.Value) []consensus.Effect { return nil }
func (p *rearmProto) Deliver(consensus.ProcessID, consensus.Message) []consensus.Effect {
	return nil
}
func (p *rearmProto) Tick(consensus.TimerID) []consensus.Effect {
	p.fired++
	return nil
}
func (p *rearmProto) Decision() (consensus.Value, bool) { return consensus.None, false }

func TestStopTimerCancels(t *testing.T) {
	const n = 1
	delta := consensus.Duration(10)
	cl, err := sim.New(sim.Options{N: n, Delta: delta, Policy: sim.Synchronous{Delta: delta}, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	p := &stopProto{}
	cl.SetNode(0, p)
	cl.Run(nil)
	if p.fired != 0 {
		t.Fatalf("stopped timer fired %d times", p.fired)
	}
}

type stopProto struct{ fired int }

func (p *stopProto) ID() consensus.ProcessID { return 0 }
func (p *stopProto) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: "t", After: 10},
		consensus.StopTimer{Timer: "t"},
	}
}
func (p *stopProto) Propose(consensus.Value) []consensus.Effect { return nil }
func (p *stopProto) Deliver(consensus.ProcessID, consensus.Message) []consensus.Effect {
	return nil
}
func (p *stopProto) Tick(consensus.TimerID) []consensus.Effect {
	p.fired++
	return nil
}
func (p *stopProto) Decision() (consensus.Value, bool) { return consensus.None, false }

func TestDuplicatorRedeliversMessages(t *testing.T) {
	const n = 2
	delta := consensus.Duration(10)
	cl, err := sim.New(sim.Options{
		N: n, Delta: delta,
		Policy:     sim.Synchronous{Delta: delta},
		Duplicator: func(sim.Envelope) int { return 1 }, // every message twice
	})
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*echoProto, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: 0, E: 0, Delta: delta}
		protos[i] = newEcho(cfg)
		cl.SetNode(cfg.ID, protos[i])
	}
	tr := cl.Run(nil)
	// One ping each way becomes two; pongs double too (pings processed
	// twice each produce a pong).
	pings := 0
	for _, ev := range protos[0].events {
		if ev == "ping:p1" {
			pings++
		}
	}
	if pings != 2 {
		t.Fatalf("p0 saw %d pings from p1, want 2", pings)
	}
	// The echo protocol is idempotent in its decision logic.
	if err := tr.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialSyncRespectsGSTBound(t *testing.T) {
	delta := consensus.Duration(10)
	gst := consensus.Time(50)
	p := sim.NewPartialSync(delta, gst, 200, 7)
	for sent := consensus.Time(0); sent < 100; sent += 3 {
		d := p.Delay(sent, 0, 1)
		if d < 1 {
			t.Fatalf("delay %d < 1", d)
		}
		arrival := sent + consensus.Time(d)
		if sent >= gst && d > consensus.Duration(delta) {
			t.Fatalf("post-GST delay %d > Δ", d)
		}
		if sent < gst && arrival > gst+consensus.Time(delta) {
			t.Fatalf("pre-GST message sent at %d arrives at %d > GST+Δ", sent, arrival)
		}
	}
}

func TestWANDelayHalvesRTT(t *testing.T) {
	rtt := [][]consensus.Duration{{0, 100}, {100, 0}}
	w := sim.NewWAN(rtt, 0, 1)
	if d := w.Delay(0, 0, 1); d != 50 {
		t.Fatalf("Delay = %d, want 50", d)
	}
	if d := w.Delay(0, 0, 0); d != 0 {
		t.Fatalf("self Delay = %d, want 0", d)
	}
	if w.MaxRTT() != 100 {
		t.Fatalf("MaxRTT = %d", w.MaxRTT())
	}
}
