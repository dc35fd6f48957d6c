package slotlog

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
)

// The byte form of the log's inputs and effects that the replay test stores
// and compares, and FuzzSlotLog reads: a stream of inputs is each input's
// bytes behind a uvarint length.

// msgCodec reads and writes every message a log is delivered or sends.
var msgCodec = func() *consensus.Codec {
	c := consensus.NewCodec()
	c.MustRegister(KindSlot, func() consensus.Message { return &SlotMessage{} })
	c.MustRegister(KindCatchupRequest, func() consensus.Message { return &CatchupRequest{} })
	c.MustRegister(KindCatchupReply, func() consensus.Message { return &CatchupReply{} })
	return c
}()

func appendMsg(dst []byte, m consensus.Message) []byte {
	dst = consensus.AppendBool(dst, m != nil)
	if m == nil {
		return dst
	}
	return consensus.AppendStr(dst, string(msgCodec.Append(nil, m)))
}

func decodeMsg(d *consensus.Decoder) consensus.Message {
	if !d.Bool() {
		return nil
	}
	m, err := msgCodec.Decode(d.Bytes())
	if err != nil {
		d.Fail(err)
	}
	return m
}

func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, r.Kind)
	dst = consensus.AppendVarint(dst, int64(r.G))
	dst = consensus.AppendVarint(dst, int64(r.Slot))
	dst = core.AppendState(dst, r.State)
	dst = consensus.AppendValue(dst, r.Val)
	dst = appendSnap(dst, r.Snap)
	return consensus.AppendBool(dst, r.Critical)
}

func decodeRecord(d *consensus.Decoder) Record {
	return Record{Kind: d.Byte(), G: int(d.Varint()), Slot: int(d.Varint()), State: core.DecodeState(d), Val: d.Value(), Snap: decodeSnap(d), Critical: d.Bool()}
}

func appendSnap(dst []byte, s *Snapshot) []byte {
	dst = consensus.AppendBool(dst, s != nil)
	if s == nil {
		return dst
	}
	dst = consensus.AppendStr(dst, string(s.Cut.AppendBody(nil)))
	dst = consensus.AppendVarint(dst, s.Seq)
	dst = consensus.AppendUvarint(dst, uint64(len(s.Slots)))
	for _, n := range sortedKeys(s.Slots) {
		dst = core.AppendState(consensus.AppendVarint(dst, int64(n)), s.Slots[n])
	}
	return dst
}

func decodeSnap(d *consensus.Decoder) *Snapshot {
	if !d.Bool() {
		return nil
	}
	s := &Snapshot{}
	if err := s.Cut.DecodeBody(d.Bytes()); err != nil {
		d.Fail(err)
	}
	s.Seq = d.Varint()
	if n := d.Count(10); n > 0 {
		s.Slots = make(map[int]core.State, n)
		for i := 0; i < n; i++ {
			s.Slots[int(d.Varint())] = core.DecodeState(d)
		}
	}
	return s
}

// AppendInput appends in's bytes behind their length.
func AppendInput(dst []byte, in Input) []byte {
	b := []byte{byte(in.Kind)}
	b = consensus.AppendVarint(b, in.Now)
	b = consensus.AppendVarint(b, int64(in.From))
	b = appendMsg(b, in.Msg)
	b = consensus.AppendUvarint(b, uint64(len(in.Cmds)))
	for _, c := range in.Cmds {
		b, _ = appendCommand(b, c)
	}
	for _, v := range []int64{in.Token, int64(in.Slot), int64(in.Leader), int64(in.Applied)} {
		b = consensus.AppendVarint(b, v)
	}
	b = appendRecord(consensus.AppendBool(b, in.Stable), in.Record)
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// errEnd is the end of an input stream.
var errEnd = errors.New("end of inputs")

// NextInput reads the first input of stream and returns the rest.
func NextInput(stream []byte) (Input, []byte, error) {
	n, k := binary.Uvarint(stream)
	if k <= 0 || uint64(len(stream)-k) < n {
		return Input{}, nil, errEnd
	}
	d := consensus.NewDecoder(stream[k : k+int(n)])
	in := Input{Kind: Kind(d.Byte()), Now: d.Varint(), From: consensus.ProcessID(d.Varint()), Msg: decodeMsg(&d)}
	if cmds := d.Count(5); cmds > 0 {
		in.Cmds = make([]Command, cmds)
		for i := range in.Cmds {
			in.Cmds[i] = decodeCommand(&d, 0)
		}
	}
	in.Token, in.Slot = d.Varint(), int(d.Varint())
	in.Leader, in.Applied, in.Stable = consensus.ProcessID(d.Varint()), int(d.Varint()), d.Bool()
	in.Record = decodeRecord(&d)
	return in, stream[k+int(n):], d.Finish()
}

// AppendEffects appends e's bytes.
func AppendEffects(dst []byte, e Effects) []byte {
	dst = consensus.AppendUvarint(dst, uint64(len(e.Records)))
	for _, r := range e.Records {
		dst = appendRecord(dst, r)
	}
	dst = consensus.AppendUvarint(dst, uint64(len(e.Sends)))
	for _, s := range e.Sends {
		dst = appendMsg(consensus.AppendVarint(dst, int64(s.To)), s.Msg)
	}
	dst = consensus.AppendUvarint(dst, uint64(len(e.Verdicts)))
	for _, v := range e.Verdicts {
		dst = consensus.AppendVarint(consensus.AppendVarint(dst, v.Token), int64(v.Slot))
		dst = consensus.AppendVarint(append(dst, byte(v.Outcome)), int64(v.Holder))
	}
	dst = consensus.AppendVarint(consensus.AppendVarint(dst, e.Wake), e.Token)
	if e.Err != nil {
		return consensus.AppendStr(dst, e.Err.Error())
	}
	return dst
}

// A batch nested maxBatchDepth deep decodes, and one level more is refused:
// the decoder's bound, not a copy of it (smr's TestCommandDecodeRefuses has
// the other malformed commands).
func TestCommandDecodeRefusesDeepNesting(t *testing.T) {
	nest := func(levels int) consensus.Value {
		c := Command{ID: "leaf", Op: OpNoop}
		for i := 0; i < levels; i++ {
			c = Command{ID: "b", Op: OpBatch, Subs: []Command{c}}
		}
		v, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if _, err := DecodeCommand(nest(maxBatchDepth)); err != nil {
		t.Fatalf("%d levels: %v", maxBatchDepth, err)
	}
	if c, err := DecodeCommand(nest(maxBatchDepth + 1)); !errors.Is(err, errBatchDepth) {
		t.Fatalf("%d levels: decoded %+v, %v; want %v", maxBatchDepth+1, c, err, errBatchDepth)
	}
}
