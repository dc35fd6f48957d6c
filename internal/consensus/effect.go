package consensus

import "fmt"

// Message is implemented by every protocol message. Kind returns a globally
// unique, stable name used by the wire codec (see codec.go) and by traces.
// AppendBody appends the message's fields in their binary form (wire.go) and
// DecodeBody reads exactly those bytes back into the receiver. body may be a
// window of a buffer its owner reuses: strings are copied out of it, and a
// wrapper's inner body (smr.SlotMessage, shard.GroupMessage) is a window of
// it still, for the handler to decode before it returns.
type Message interface {
	Kind() string
	AppendBody(dst []byte) []byte
	DecodeBody(body []byte) error
}

// Effect is the closed set of actions a protocol step can request from its
// host. Hosts must apply effects in order.
type Effect interface {
	isEffect()
	fmt.Stringer
}

// Send asks the host to transmit Msg to the single process To.
type Send struct {
	To  ProcessID
	Msg Message
}

// Broadcast asks the host to transmit Msg to every process in Π.
// When Self is false the sender is excluded (the paper's "send to Π∖{p_i}").
// When Self is true the sender delivers the message to itself as well, with
// no network delay (a local step).
type Broadcast struct {
	Msg  Message
	Self bool
}

// StartTimer asks the host to (re)arm the named timer to fire After ticks
// from now. Arming a timer that is already pending replaces it.
type StartTimer struct {
	Timer TimerID
	After Duration
}

// StopTimer asks the host to cancel the named timer if it is pending.
type StopTimer struct {
	Timer TimerID
}

// Decide announces that this process has irrevocably decided Value. A
// correct protocol emits Decide at most once per instance.
type Decide struct {
	Value Value
}

func (Send) isEffect()       {}
func (Broadcast) isEffect()  {}
func (StartTimer) isEffect() {}
func (StopTimer) isEffect()  {}
func (Decide) isEffect()     {}

// String implements fmt.Stringer.
func (e Send) String() string { return fmt.Sprintf("send %s to %s", e.Msg.Kind(), e.To) }

// String implements fmt.Stringer.
func (e Broadcast) String() string {
	if e.Self {
		return fmt.Sprintf("broadcast %s to Π", e.Msg.Kind())
	}
	return fmt.Sprintf("broadcast %s to Π∖self", e.Msg.Kind())
}

// String implements fmt.Stringer.
func (e StartTimer) String() string { return fmt.Sprintf("start timer %s +%d", e.Timer, e.After) }

// String implements fmt.Stringer.
func (e StopTimer) String() string { return fmt.Sprintf("stop timer %s", e.Timer) }

// String implements fmt.Stringer.
func (e Decide) String() string { return fmt.Sprintf("decide %s", e.Value) }
