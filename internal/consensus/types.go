// Package consensus defines the shared kernel used by every protocol in this
// repository: process identifiers, ballots, an ordered value domain with a
// bottom element, the deterministic state-machine interface that protocols
// implement, and the effect vocabulary through which protocols interact with
// the outside world.
//
// Protocols are pure, deterministic state machines: they never touch the
// network or the clock directly. Instead every entry point returns a slice of
// Effect values (send a message, broadcast, start a timer, announce a
// decision) that the host — the discrete-event simulator in internal/sim, a
// log slot of internal/smr's replica, or F10's single-instance driver in
// internal/bench — interprets. This is
// what lets the same protocol code run in reproducible simulated executions
// (including the adversarial lower-bound constructions of the paper's
// Appendix B) and on a real TCP cluster.
package consensus

import "strconv"

// ProcessID identifies a process in the system Π = {0, …, n−1}.
type ProcessID int

// String implements fmt.Stringer.
func (p ProcessID) String() string { return "p" + strconv.Itoa(int(p)) }

// NoProcess is the distinguished "no process" value (⊥ in the paper's
// proposer field). It is never a valid member of Π.
const NoProcess ProcessID = -1

// Ballot numbers order the protocol's attempts to reach agreement.
// Ballot 0 is the fast ballot; all others are slow ballots.
type Ballot int64

// String implements fmt.Stringer.
func (b Ballot) String() string { return "b" + strconv.FormatInt(int64(b), 10) }

// Fast reports whether b is the fast ballot.
func (b Ballot) Fast() bool { return b == 0 }

// Time is a point in simulated time, measured in abstract ticks.
// The simulator maps rounds onto ticks (one round = Δ ticks); the live node
// host maps ticks onto wall-clock milliseconds.
type Time int64

// Duration is a span of simulated time in ticks.
type Duration int64

// TimerID names a timer owned by a protocol instance. Protocols choose their
// own identifiers; hosts treat them as opaque. Restarting a timer with the
// same ID cancels the previous instance.
type TimerID string
