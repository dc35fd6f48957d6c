// Fixture for the msgswitch analyzer: type switches over consensus.Message
// must list every message type declared in this package (Ping, Pong, Quit).
package fixture

import "repro/internal/consensus"

type Ping struct{}
type Pong struct{}
type Quit struct{}

func (*Ping) Kind() string { return "fixture.ping" }
func (*Pong) Kind() string { return "fixture.pong" }
func (*Quit) Kind() string { return "fixture.quit" }

func (*Ping) AppendBody(dst []byte) []byte { return dst }
func (*Pong) AppendBody(dst []byte) []byte { return dst }
func (*Quit) AppendBody(dst []byte) []byte { return dst }
func (*Ping) DecodeBody([]byte) error      { return nil }
func (*Pong) DecodeBody([]byte) error      { return nil }
func (*Quit) DecodeBody([]byte) error      { return nil }

func full(m consensus.Message) { // all three types listed: fine
	switch m.(type) {
	case *Ping, *Pong:
	case *Quit:
	default:
	}
}

func partial(m consensus.Message) {
	switch m.(type) { // want "does not handle Quit"
	case *Ping:
	case *Pong:
	default:
	}
}

func suppressed(m consensus.Message) {
	//lint:allow msgswitch Quit is consumed by the supervisor upstream
	switch m.(type) {
	case *Ping, *Pong:
	}
}

func notAMessageSwitch(v interface{}) { // subject is not consensus.Message: fine
	switch v.(type) {
	case int:
	default:
	}
}
