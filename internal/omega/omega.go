// Package omega implements the Ω leader-election service of the paper's
// Appendix C.1 as a heartbeat-based eventual leader detector, in the
// standard Chandra–Toueg style: every process periodically broadcasts a
// heartbeat; a process trusts the lowest-id process it has heard from
// recently; after GST all correct processes converge on the same lowest-id
// correct process.
//
// The detector is itself a deterministic consensus.Protocol (heartbeats are
// messages, periods are timers), so it runs both under the simulator and on
// live transports, side by side with a consensus protocol that consumes it
// through the consensus.LeaderOracle interface.
package omega

import (
	"repro/internal/consensus"
)

// KindHeartbeat is the heartbeat message kind.
const KindHeartbeat = "omega.heartbeat"

// Heartbeat is the liveness beacon broadcast every period.
type Heartbeat struct{}

// Kind implements consensus.Message.
func (Heartbeat) Kind() string { return KindHeartbeat }

// AppendBody and DecodeBody implement consensus.Message: a heartbeat has no
// fields.
func (*Heartbeat) AppendBody(dst []byte) []byte { return dst }
func (*Heartbeat) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	return d.Finish()
}

// RegisterMessages registers the omega message kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindHeartbeat, func() consensus.Message { return &Heartbeat{} })
}

// TimerPeriod drives heartbeat emission and suspicion evaluation.
const TimerPeriod consensus.TimerID = "omega.period"

// DefaultTimeoutPeriods is how many silent periods make a process suspect.
const DefaultTimeoutPeriods = 3

// Detector is the Ω implementation at one process.
type Detector struct {
	cfg     consensus.Config
	timeout int64 // periods of silence before suspicion

	epoch     int64
	lastHeard []int64 // epoch at which each process was last heard

	// Leader-stability tracking (LeaderStable): the current estimate and
	// the epoch at which it last changed, refreshed on every Deliver/Tick.
	lastLeader   consensus.ProcessID
	leaderSince  int64
	leaderInited bool
}

var (
	_ consensus.Protocol     = (*Detector)(nil)
	_ consensus.LeaderOracle = (*Detector)(nil)
)

// New builds a detector. timeoutPeriods ≤ 0 selects DefaultTimeoutPeriods.
func New(cfg consensus.Config, timeoutPeriods int) *Detector {
	if timeoutPeriods <= 0 {
		timeoutPeriods = DefaultTimeoutPeriods
	}
	d := &Detector{
		cfg:       cfg,
		timeout:   int64(timeoutPeriods),
		lastHeard: make([]int64, cfg.N),
	}
	return d
}

// ID implements consensus.Protocol.
func (d *Detector) ID() consensus.ProcessID { return d.cfg.ID }

// Leader implements consensus.LeaderOracle: the lowest-id process heard from
// within the timeout window (always including ourselves).
func (d *Detector) Leader() consensus.ProcessID {
	for i := 0; i < d.cfg.N; i++ {
		p := consensus.ProcessID(i)
		if p == d.cfg.ID {
			return p
		}
		if d.epoch-d.lastHeard[i] <= d.timeout {
			return p
		}
	}
	return d.cfg.ID
}

// Start implements consensus.Protocol: begin heartbeating immediately.
func (d *Detector) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.Broadcast{Msg: &Heartbeat{}, Self: false},
		consensus.StartTimer{Timer: TimerPeriod, After: d.cfg.Delta},
	}
}

// Propose implements consensus.Protocol (no-op: Ω has no proposals).
func (d *Detector) Propose(consensus.Value) []consensus.Effect { return nil }

// Decision implements consensus.Protocol (Ω never decides).
func (d *Detector) Decision() (consensus.Value, bool) { return consensus.None, false }

// Deliver implements consensus.Protocol.
func (d *Detector) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	if _, ok := m.(*Heartbeat); ok {
		d.Heard(from)
	}
	return nil
}

// Heard records a heartbeat; a sender outside the membership is ignored. A
// host that owns the period timer and the wire itself (shard.Runtime) drives
// the detector through Heard and Beat alone and interprets no effects.
func (d *Detector) Heard(from consensus.ProcessID) {
	if from >= 0 && int(from) < len(d.lastHeard) {
		d.lastHeard[from] = d.epoch
	}
	d.noteLeader()
}

// Beat closes one period: the epoch advances, so a process not heard from for
// more than the timeout falls out of the estimate.
func (d *Detector) Beat() {
	d.epoch++
	d.noteLeader()
}

// Tick implements consensus.Protocol: advance the epoch and heartbeat again.
func (d *Detector) Tick(t consensus.TimerID) []consensus.Effect {
	if t != TimerPeriod {
		return nil
	}
	d.Beat()
	return []consensus.Effect{
		consensus.Broadcast{Msg: &Heartbeat{}, Self: false},
		consensus.StartTimer{Timer: TimerPeriod, After: d.cfg.Delta},
	}
}

// noteLeader refreshes the stability tracking after any event that can
// move the estimate.
func (d *Detector) noteLeader() {
	cur := d.Leader()
	if !d.leaderInited || cur != d.lastLeader {
		d.lastLeader = cur
		d.leaderSince = d.epoch
		d.leaderInited = true
	}
}

// LeaderStable reports whether the current leader estimate has been
// unchanged for at least minPeriods heartbeat periods. The lease
// auto-grant timer uses it to avoid proposing grants during leader churn
// (competing grants revoke each other — safe, but wasted rounds).
func (d *Detector) LeaderStable(minPeriods int64) bool {
	if !d.leaderInited {
		return false
	}
	return d.Leader() == d.lastLeader && d.epoch-d.leaderSince >= minPeriods
}
