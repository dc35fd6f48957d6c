package consensus

import (
	"fmt"
	"sort"
	"sync"
)

// Codec translates protocol messages to and from a self-describing wire form
// — the kind as a length-prefixed string, then the message's own body bytes
// (wire.go) — so that the TCP transport can carry any registered message type.
// Message kinds are registered once, at host construction time, via
// Register; registration is safe for concurrent use.
type Codec struct {
	mu        sync.RWMutex
	factories map[string]func() Message
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{factories: make(map[string]func() Message)}
}

// Register associates kind with a factory producing a pointer to a fresh
// message struct of that kind. Registering the same kind twice is an error.
func (c *Codec) Register(kind string, factory func() Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.factories[kind]; dup {
		return fmt.Errorf("codec: kind %q already registered", kind)
	}
	c.factories[kind] = factory
	return nil
}

// MustRegister is Register for host construction paths where a duplicate
// registration is a programming error.
func (c *Codec) MustRegister(kind string, factory func() Message) {
	if err := c.Register(kind, factory); err != nil {
		panic(err)
	}
}

// Kinds returns the registered kinds in sorted order.
func (c *Codec) Kinds() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.factories))
	for k := range c.factories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarshalPooled returns the body bytes of msg, freshly allocated at their
// exact size: what a wrapper (smr.SlotMessage, shard.GroupMessage) carries as
// its inner body. The error is always nil.
func MarshalPooled(msg Message) ([]byte, error) {
	bp := Scratch()
	b := msg.AppendBody(*bp)
	out := append([]byte(nil), b...)
	Release(bp, b)
	return out, nil
}

// Append appends m's wire form to dst.
func (c *Codec) Append(dst []byte, m Message) []byte {
	return m.AppendBody(AppendStr(dst, m.Kind()))
}

// Encode serializes m into the self-describing wire form. The error is
// always nil.
func (c *Codec) Encode(m Message) ([]byte, error) {
	bp := Scratch()
	b := c.Append(*bp, m)
	out := append([]byte(nil), b...)
	Release(bp, b)
	return out, nil
}

// Decode parses a wire-form message produced by Encode. Byte fields of the
// result alias data (see Decoder).
func (c *Codec) Decode(data []byte) (Message, error) {
	d := NewDecoder(data)
	kind := d.Bytes()
	if d.err != nil {
		return nil, fmt.Errorf("codec decode envelope: %w", d.err)
	}
	c.mu.RLock()
	factory := c.factories[string(kind)] // no copy: a map index converts in place
	c.mu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("codec decode: unknown kind %q", kind)
	}
	return decodeBody(factory(), d.Rest())
}

// DecodeBody instantiates a registered message kind straight from its body
// bytes, for a caller that already has the parts (the mux's group unwrap,
// the replica's slot unwrap).
func (c *Codec) DecodeBody(kind string, body []byte) (Message, error) {
	c.mu.RLock()
	factory := c.factories[kind]
	c.mu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("codec decode: unknown kind %q", kind)
	}
	return decodeBody(factory(), body)
}

func decodeBody(m Message, body []byte) (Message, error) {
	if err := m.DecodeBody(body); err != nil {
		return nil, fmt.Errorf("codec decode %s body: %w", m.Kind(), err)
	}
	return m, nil
}
