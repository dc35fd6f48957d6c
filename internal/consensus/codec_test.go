package consensus_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/epaxos"
	"repro/internal/fastpaxos"
	"repro/internal/omega"
	"repro/internal/paxos"
	"repro/internal/shard"
	"repro/internal/smr"
)

// fullCodec registers every message kind in the repository, which also
// proves all kind names are globally unique.
func fullCodec(t testing.TB) *consensus.Codec {
	t.Helper()
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	paxos.RegisterMessages(codec)
	fastpaxos.RegisterMessages(codec)
	epaxos.RegisterMessages(codec)
	smr.RegisterMessages(codec)
	shard.RegisterMessages(codec) // includes omega
	return codec
}

func TestAllKindsGloballyUnique(t *testing.T) {
	codec := fullCodec(t)
	if got := len(codec.Kinds()); got < 20 {
		t.Fatalf("expected 20+ registered kinds, got %d: %v", got, codec.Kinds())
	}
}

func TestDuplicateRegistrationFails(t *testing.T) {
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	if err := codec.Register(core.KindPropose, func() consensus.Message { return &core.ProposeMsg{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// allMessages is one of every registered kind (some twice, for an optional
// field), with values JSON could only have carried escaped: bytes ≥ 0x80,
// NUL, a quote.
func allMessages() []consensus.Message {
	v := consensus.Value{Key: 42, Data: "pay\x00load \xff\xfe\""}
	big := consensus.Value{Key: math.MaxInt64, Data: strings.Repeat("\x80", 64<<10)}
	holder := 3
	return []consensus.Message{
		&core.ProposeMsg{Value: v},
		&core.OneA{Ballot: 3},
		&core.OneB{Ballot: 3, VBal: 1, Val: v, Proposer: 2, Decided: consensus.None},
		&core.OneB{Ballot: 300, VBal: 0, Val: consensus.None, Proposer: consensus.NoProcess, Decided: big},
		&core.TwoA{Ballot: 3, Value: v},
		&core.TwoB{Ballot: 0, Value: v},
		&core.DecideMsg{Value: big},
		&paxos.Forward{Value: v},
		&paxos.OneA{Ballot: 9},
		&paxos.OneB{Ballot: 9, VBal: 2, Val: v},
		&paxos.TwoA{Ballot: 9, Value: v},
		&paxos.TwoB{Ballot: 9, Value: v},
		&paxos.DecideMsg{Value: v},
		&fastpaxos.ProposeMsg{Value: v},
		&fastpaxos.OneA{Ballot: 4},
		&fastpaxos.OneB{Ballot: 4, VBal: 0, Val: v},
		&fastpaxos.TwoA{Ballot: 4, Value: v},
		&fastpaxos.TwoB{Ballot: 4, Value: v},
		&fastpaxos.DecideMsg{Value: v},
		&epaxos.PreAccept{Value: v},
		&epaxos.PreAcceptOK{Value: v},
		&epaxos.Prepare{Ballot: 6},
		&epaxos.PrepareOK{Ballot: 6, VBal: 0, Val: v, FastVoted: true, Committed: consensus.None},
		&epaxos.Accept{Ballot: 6, Value: v},
		&epaxos.AcceptOK{Ballot: 6, Value: v},
		&epaxos.Commit{Value: v},
		&omega.Heartbeat{},
		&smr.SlotMessage{Slot: 12, InnerKind: core.KindTwoB, InnerBody: []byte{0, 1, 0xff}},
		&smr.CatchupRequest{From: 0},
		// The log suffix, empty and not; a snapshot's only part, a middle one
		// and a last one with the decided tail and the lease view.
		&smr.CatchupReply{Applied: 7},
		&smr.CatchupReply{Applied: 131, Decided: map[int]consensus.Value{9: v, 7: big, 130: consensus.IntValue(-1)}},
		&smr.CatchupReply{Applied: 7, Store: map[string]string{}},
		&smr.CatchupReply{Applied: 7, Part: 3, Last: 200, Store: map[string]string{"k": "v"}},
		&smr.CatchupReply{
			Applied: 7, Part: 2, Last: 2,
			Store:       map[string]string{"": "empty key", "k\xff": "", "a": "1", "b": big.Data},
			Decided:     map[int]consensus.Value{9: v, 7: big, 130: consensus.IntValue(-1)},
			LeaseHolder: &holder, LeaseRemain: 1_500_000_000,
		},
		&shard.GroupMessage{Group: 3, InnerKind: smr.KindSlot, InnerBody: []byte("opaque at this layer")},
		&shard.Status{},
		&shard.Status{Applied: []int{1 << 40}},
		&shard.Status{Applied: []int{0, 1, 2, 3, 127, 128, 1 << 20, 7, 8, 9, 10, 11, 12, 13, 14, 1 << 40}},
	}
}

// decode(encode(x)) equals x, and — one canonical form — encoding what was
// decoded gives back the bytes that were decoded.
func TestRoundTripAllMessageTypes(t *testing.T) {
	codec := fullCodec(t)
	seen := map[string]bool{}
	for _, msg := range allMessages() {
		seen[msg.Kind()] = true
		data, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", msg.Kind(), err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", msg.Kind(), got, msg)
		}
		again, _ := codec.Encode(got)
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding differs", msg.Kind())
		}
		if body, _ := consensus.MarshalPooled(msg); !bytes.HasSuffix(data, body) || len(data)-len(body) != 1+len(msg.Kind()) {
			t.Errorf("%s: wire form is not kind then body", msg.Kind())
		}
	}
	for _, kind := range codec.Kinds() {
		if !seen[kind] {
			t.Errorf("kind %s is registered but not in the round-trip table", kind)
		}
	}
}

// Every strict prefix of a valid encoding, and the encoding with a byte
// appended, is refused — no field is optional, nothing trails.
func TestDecodeRefusesTruncatedAndTrailing(t *testing.T) {
	codec := fullCodec(t)
	for _, msg := range allMessages() {
		data, _ := codec.Encode(msg)
		if len(data) > 4<<10 {
			continue // the 64 KiB cases: same code, 64k more iterations
		}
		// A wrapper's inner body is the rest of the bytes, whatever they
		// are: only its own fields can be cut short.
		inner := 0
		switch m := msg.(type) {
		case *smr.SlotMessage:
			inner = len(m.InnerBody)
		case *shard.GroupMessage:
			inner = len(m.InnerBody)
		}
		for cut := 0; cut < len(data)-inner; cut++ {
			if _, err := codec.Decode(data[:cut]); err == nil {
				t.Errorf("%s: %d-byte prefix of %d decoded", msg.Kind(), cut, len(data))
			}
		}
		if _, err := codec.Decode(append(data[:len(data):len(data)], 0)); err == nil && inner == 0 {
			t.Errorf("%s: trailing byte accepted", msg.Kind())
		}
	}
}

func TestDecoderRefusesNonCanonical(t *testing.T) {
	for name, b := range map[string][]byte{
		"over-long uvarint": {0x80, 0x00},
		"11-byte uvarint":   bytes.Repeat([]byte{0xff}, 11),
	} {
		d := consensus.NewDecoder(b)
		d.Uvarint()
		if d.Finish() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	d := consensus.NewDecoder([]byte{2})
	d.Bool()
	if !errors.Is(d.Finish(), consensus.ErrNotCanonical) {
		t.Error("bool byte 2 accepted")
	}
	// Unsorted map keys are another spelling of the same reply.
	sorted := (&smr.CatchupReply{Store: map[string]string{"a": "1", "b": "2"}}).AppendBody(nil)
	swapped := bytes.Replace(sorted, []byte("\x01a\x011\x01b\x012"), []byte("\x01b\x012\x01a\x011"), 1)
	if bytes.Equal(sorted, swapped) {
		t.Fatal("test is stale: the store pairs were not found in the encoding")
	}
	if err := new(smr.CatchupReply).DecodeBody(swapped); !errors.Is(err, consensus.ErrNotCanonical) {
		t.Errorf("unsorted store: %v, want ErrNotCanonical", err)
	}
}

// A length prefix is checked against the bytes that remain before anything
// is sized by it: 16 bytes claiming a 2³¹-byte field cost nothing.
func TestDecoderOversizePrefixAllocatesNothing(t *testing.T) {
	claim := consensus.AppendUvarint(nil, 1<<31)
	input := append(claim, make([]byte, 16-len(claim))...)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		d := consensus.NewDecoder(input)
		d.Str()
		err = d.Finish()
	})
	if !errors.Is(err, consensus.ErrTruncated) || allocs != 0 {
		t.Fatalf("err %v with %v allocs, want ErrTruncated with none", err, allocs)
	}
	value := append(make([]byte, 8), claim...) // a Value: key, then the data's length
	allocs = testing.AllocsPerRun(100, func() {
		d := consensus.NewDecoder(value)
		d.Value()
		err = d.Finish()
	})
	if !errors.Is(err, consensus.ErrTruncated) || allocs != 0 {
		t.Fatalf("value: err %v with %v allocs, want ErrTruncated with none", err, allocs)
	}
}

func TestVersionedDecoderNamesTheFormat(t *testing.T) {
	for _, b := range [][]byte{nil, []byte(`{"k":"s"}`), {0}, {consensus.FormatVersion - 1, 0}, {consensus.FormatVersion + 1, 0}} {
		_, err := consensus.NewVersionedDecoder(b, "thing")
		if !errors.Is(err, consensus.ErrFormatVersion) || !strings.Contains(err.Error(), "thing") || !strings.Contains(err.Error(), "JSON") {
			t.Errorf("%q: %v", b, err)
		}
	}
	if d, err := consensus.NewVersionedDecoder([]byte{consensus.FormatVersion, 7}, "thing"); err != nil || d.Byte() != 7 || d.Finish() != nil {
		t.Errorf("version byte not stripped: %v", err)
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	codec := consensus.NewCodec()
	data, _ := fullCodec(t).Encode(&omega.Heartbeat{})
	if _, err := codec.Decode(data); err == nil || !strings.Contains(err.Error(), omega.KindHeartbeat) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	codec := fullCodec(t)
	for _, bad := range []string{"", "{", `{"kind":"core.2b","body":{"ballot":0,"value":{"key":1}}}`, "\x07core.2b"} {
		if _, err := codec.Decode([]byte(bad)); err == nil {
			t.Errorf("garbage %q decoded", bad)
		}
	}
}
