package shard

import (
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
	"repro/internal/omega"
)

// The two clocks that belong to no slot and to no group: Ω (a fact about
// processes — the lowest-id one heard from recently) and the applied-index
// gossip. Everything the process sends for itself is posted on
// the shared IOScheduler, not sent from the timer: a Status must stay behind
// the queued Decide it advertises (a peer told of an applied index it has not
// been sent asks for the whole store), and a disk that hangs must silence the
// heartbeats, so that Ω demotes the process.

// KindStatus is the wire kind of the applied-index gossip.
const KindStatus = "shard.status"

// statusBeats is the gossip period in heartbeat periods: one Status per 5Δ.
const statusBeats = 5

// Status is the process's applied-index gossip: how many log slots each of
// its groups has applied, in group order. A peer's group that is behind asks
// for the difference (smr.Replica.NoteApplied).
type Status struct {
	Applied []int
}

// Kind, AppendBody and DecodeBody implement consensus.Message: the group
// count, then one applied index per group.
func (Status) Kind() string { return KindStatus }

func (m *Status) AppendBody(dst []byte) []byte {
	dst = consensus.AppendUvarint(dst, uint64(len(m.Applied)))
	for _, a := range m.Applied {
		dst = consensus.AppendVarint(dst, int64(a))
	}
	return dst
}

func (m *Status) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	if n := d.Count(1); n > 0 {
		m.Applied = make([]int, n)
		for g := range m.Applied {
			m.Applied[g] = int(d.Varint())
		}
	}
	return d.Finish()
}

// leaders is the process's Ω: the one omega.Detector behind a leaf mutex, so
// that every group reads it under Replica.mu at each fire
// (smr.LeaderView) while the Runtime's clock and inbound heartbeats feed it.
type leaders struct {
	mu  sync.Mutex
	det *omega.Detector
}

func (l *leaders) Leader() consensus.ProcessID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.det.Leader()
}

func (l *leaders) LeaderStable(minPeriods int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.det.LeaderStable(minPeriods)
}

func (l *leaders) beat() {
	l.mu.Lock()
	l.det.Beat()
	l.mu.Unlock()
}

func (l *leaders) heard(from consensus.ProcessID) {
	l.mu.Lock()
	l.det.Heard(from)
	l.mu.Unlock()
}

// handle is the inbound handler of the process's real transport. A Status
// that does not name exactly this process's groups is malformed outside input
// and is dropped, as Heard drops a heartbeat from outside the membership.
func (rt *Runtime) handle(from consensus.ProcessID, msg consensus.Message) {
	switch m := msg.(type) {
	case *GroupMessage:
		rt.deliver(from, m)
	case *omega.Heartbeat:
		rt.leaders.heard(from)
	case *Status:
		if len(m.Applied) != len(rt.groups) {
			return
		}
		for g, r := range rt.groups {
			r.NoteApplied(from, m.Applied[g])
		}
	}
}

// every runs fn once per period, on the ticks of a fixed grid from now: the
// clock is a deadline whose callback runs fn and then arms the next tick, so
// a tick that finds fn still running is dropped, not queued. It arms only
// while the runtime is open; shutdown stops it.
func (rt *Runtime) every(period time.Duration, fn func()) {
	next := deadline.Now().Add(period)
	tick := func() {
		fn()
		now := deadline.Now()
		next = next.Add(period)
		if late := now.Sub(next); late >= 0 { // the ticks fn ran through
			next = next.Add(late - late%period + period)
		}
		rt.mu.Lock()
		if !rt.closed {
			rt.clock.Reset(next.Sub(now))
		}
		rt.mu.Unlock()
	}
	rt.mu.Lock()
	rt.clock = deadline.AfterFunc(period, tick)
	rt.mu.Unlock()
}

// beat closes one Ω period: the epoch advances and every peer is sent a
// heartbeat and, every statusBeats-th time, the applied indexes — read before
// the post, so every Decide behind them is already queued ahead of the Status.
func (rt *Runtime) beat(status bool) {
	rt.leaders.beat()
	rt.broadcast(&omega.Heartbeat{})
	if status {
		st := &Status{Applied: make([]int, len(rt.groups))}
		for g, r := range rt.groups {
			st.Applied[g] = r.Applied()
		}
		rt.broadcast(st)
	}
}

// broadcast posts msg to every peer on the I/O scheduler. Once shutdown has
// begun the post sends nothing (send).
func (rt *Runtime) broadcast(msg consensus.Message) {
	rt.io.Post(func() {
		for i := 0; i < rt.cfg.N; i++ {
			if p := consensus.ProcessID(i); p != rt.cfg.ID {
				_ = rt.send(p, msg) // lossy by contract: the next period repeats it
			}
		}
	})
}
