// Package omega implements the Ω leader-election service of the paper's
// Appendix C.1 as a heartbeat-based eventual leader detector, in the
// standard Chandra–Toueg style: every process periodically broadcasts a
// heartbeat; a process trusts the lowest-id process it has heard from
// recently; after GST all correct processes converge on the same lowest-id
// correct process.
//
// The detector owns no clock and no wire: its host (shard.Runtime, one per
// process) broadcasts a Heartbeat and calls Beat once per period, calls
// Heard for every heartbeat that arrives, and hands the detector to the
// consensus instances it runs as their consensus.LeaderOracle. The
// simulator needs none of this: sim.Cluster.Oracle answers from its global
// view.
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

// DefaultTimeoutPeriods is how many silent periods make a process suspect.
const DefaultTimeoutPeriods = 3

// Detector is the Ω implementation at one process.
type Detector struct {
	cfg     consensus.Config
	timeout int64 // periods of silence before suspicion

	epoch     int64
	lastHeard []int64 // epoch at which each process was last heard

	// Leader-stability tracking (LeaderStable): the current estimate and
	// the epoch at which it last changed, refreshed on every Beat/Heard.
	lastLeader   consensus.ProcessID
	leaderSince  int64
	leaderInited bool
}

var _ consensus.LeaderOracle = (*Detector)(nil)

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

// Heard records a heartbeat from a peer; a sender outside the membership is
// ignored.
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
// auto-grant reads it to avoid proposing grants during leader churn
// (competing grants revoke each other — safe, but wasted rounds).
func (d *Detector) LeaderStable(minPeriods int64) bool {
	if !d.leaderInited {
		return false
	}
	return d.Leader() == d.lastLeader && d.epoch-d.leaderSince >= minPeriods
}
