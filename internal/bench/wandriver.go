package bench

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/transport"
)

// errDriverClosed is what a waiter gets from a driver closed before it
// decided.
var errDriverClosed = errors.New("bench: driver closed")

// driver runs one single-decree protocol instance on a live transport for
// F10: protocol ticks become wall-clock timers, self-addressed messages are
// delivered inline, and every step runs the persist hook (when set) before
// any message that step produced leaves. A hook failure stops the driver and
// drops the step's sends — after a journaling failure, silence is the only
// safe output.
type driver struct {
	n       int
	tr      transport.Transport
	tick    time.Duration
	p       consensus.Protocol
	persist func() error

	mu      sync.Mutex
	timers  map[consensus.TimerID]*time.Timer // the armed generation of each timer
	decided consensus.Value
	done    chan struct{} // closed at the first decision or at the stop
	err     error         // why the driver stopped: the hook's failure or errDriverClosed
}

func newDriver(n int, tr transport.Transport, tick time.Duration, p consensus.Protocol, persist func() error) *driver {
	return &driver{n: n, tr: tr, tick: tick, p: p, persist: persist,
		timers: map[consensus.TimerID]*time.Timer{}, decided: consensus.None, done: make(chan struct{})}
}

// Handle is the transport handler.
func (d *driver) Handle(from consensus.ProcessID, msg consensus.Message) {
	d.step(nil, func() []consensus.Effect { return d.p.Deliver(from, msg) })
}

func (d *driver) Start() { d.step(nil, d.p.Start) }

func (d *driver) Propose(v consensus.Value) {
	d.step(nil, func() []consensus.Effect { return d.p.Propose(v) })
}

// WaitDecision blocks until the instance decides, the driver stops or ctx is
// done. A driver whose hook failed reports that failure whatever it decided:
// its decision may not be durable.
func (d *driver) WaitDecision(ctx context.Context) (consensus.Value, error) {
	select {
	case <-d.done:
	case <-ctx.Done():
		return consensus.None, ctx.Err()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.decided.IsNone() || d.err != nil && !errors.Is(d.err, errDriverClosed) {
		return consensus.None, d.err
	}
	return d.decided, nil
}

// Close stops the timers and releases every waiter; the transport belongs to
// the fabric.
func (d *driver) Close() {
	d.mu.Lock()
	d.stopLocked(errDriverClosed)
	d.mu.Unlock()
}

func (d *driver) stopLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	for _, t := range d.timers {
		t.Stop()
	}
	if d.decided.IsNone() {
		close(d.done)
	}
}

// step runs fn as one protocol step under the lock — unless the driver
// stopped or stale (when set) voids it — and persists it; only then do the
// step's sends leave.
func (d *driver) step(stale func() bool, fn func() []consensus.Effect) {
	d.mu.Lock()
	var out []consensus.Send
	if d.err == nil && (stale == nil || !stale()) {
		out = d.applyLocked(fn())
		if d.persist != nil {
			if err := d.persist(); err != nil {
				d.stopLocked(err)
				out = nil
			}
		}
	}
	d.mu.Unlock()
	for _, s := range out {
		_ = d.tr.Send(s.To, s.Msg) // peers may be down; protocol timers retransmit
	}
}

// applyLocked interprets effects, returning the network sends.
func (d *driver) applyLocked(effects []consensus.Effect) []consensus.Send {
	var out []consensus.Send
	self := d.tr.Self()
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			if eff.To == self {
				out = append(out, d.applyLocked(d.p.Deliver(self, eff.Msg))...)
			} else {
				out = append(out, eff)
			}
		case consensus.Broadcast:
			for to := consensus.ProcessID(0); int(to) < d.n; to++ {
				if to != self {
					out = append(out, consensus.Send{To: to, Msg: eff.Msg})
				} else if eff.Self {
					out = append(out, d.applyLocked(d.p.Deliver(self, eff.Msg))...)
				}
			}
		case consensus.StartTimer:
			d.startTimerLocked(eff)
		case consensus.StopTimer:
			delete(d.timers, eff.Timer)
		case consensus.Decide:
			if d.decided.IsNone() {
				d.decided = eff.Value
				close(d.done)
			}
		}
	}
	return out
}

// startTimerLocked arms a new generation of a timer. A callback fires only
// while its own generation is the armed one, so a timer restarted or stopped
// after it expired stays silent.
func (d *driver) startTimerLocked(eff consensus.StartTimer) {
	if old := d.timers[eff.Timer]; old != nil {
		old.Stop()
	}
	var t *time.Timer
	t = time.AfterFunc(time.Duration(eff.After)*d.tick, func() {
		d.step(func() bool { return d.timers[eff.Timer] != t },
			func() []consensus.Effect { return d.p.Tick(eff.Timer) })
	})
	d.timers[eff.Timer] = t
}
