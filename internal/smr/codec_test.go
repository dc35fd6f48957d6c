package smr

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr/slotlog"
)

// codecCommands are commands the JSON encoding could only carry escaped, or
// at three times the size: bytes ≥ 0x80 and NUL in every field, empty and
// 64 KiB fields, batches in batches.
func codecCommands() []Command {
	big := strings.Repeat("\x00\xff", 32<<10)
	return []Command{
		{ID: "p0-1", Op: OpPut, Key: "k", Val: "v"},
		{ID: "", Op: OpNoop},
		{ID: "p1-\xff\"", Op: OpDelete, Key: "ké\x80\x00"},
		{ID: "p2-9", Op: OpLeaseGrant, Key: "2", Val: "2000000000"},
		{ID: "p0-big", Op: OpPut, Key: big, Val: big},
		{ID: "p0-b", Op: OpBatch, Subs: []Command{
			{ID: "a", Op: OpPut, Key: "x", Val: ""},
			{ID: "b", Op: OpBatch, Subs: []Command{{ID: "c", Op: OpDelete, Key: "\x80"}, {ID: "d", Op: OpNoop}}},
			{ID: "e", Op: OpPut, Key: "", Val: big},
		}},
	}
}

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, cmd := range codecCommands() {
		v, err := cmd.Encode()
		if err != nil {
			t.Fatalf("%s: %v", cmd.ID, err)
		}
		got, err := DecodeCommand(v)
		if err != nil || !reflect.DeepEqual(got, cmd) {
			t.Fatalf("%.20q: decoded %+v, %v", cmd.ID, got, err)
		}
		if again, _ := got.Encode(); again != v {
			t.Fatalf("%.20q: re-encoding differs", cmd.ID)
		}
	}
	// A write costs its three strings, an op byte and four length bytes.
	v, _ := Command{ID: "p0-123456", Op: OpPut, Key: "c0-k17", Val: "v-000000004711"}.Encode()
	if len(v.Data) != 9+6+14+5 {
		t.Fatalf("a 29-character write encodes to %d bytes, want 34", len(v.Data))
	}
	if _, err := (Command{ID: "x", Op: "increment"}).Encode(); err == nil {
		t.Fatal("an op with no byte encoded")
	}
	if _, err := (Command{ID: "x", Op: OpBatch, Subs: []Command{{ID: "y"}}}).Encode(); err == nil {
		t.Fatal("a batch holding an op with no byte encoded")
	}
}

func TestCommandDecodeRefuses(t *testing.T) {
	good, _ := Command{ID: "p0-1", Op: OpBatch, Subs: []Command{{ID: "a", Op: OpPut, Key: "k", Val: "v"}}}.Encode()
	for name, data := range map[string]string{
		"empty":             "",
		"op byte 0":         "\x00" + good.Data[1:],
		"op byte unknown":   "\x09" + good.Data[1:],
		"truncated":         good.Data[:len(good.Data)-1],
		"trailing byte":     good.Data + "\x00",
		"json":              `{"id":"p0-1","op":"put","key":"k","val":"v"}`,
		"more subs claimed": good.Data[:8] + "\x7f" + good.Data[9:],
	} {
		if c, err := DecodeCommand(consensus.Value{Data: data}); err == nil {
			t.Errorf("%s: decoded %+v", name, c)
		}
	}
	if good.Data[8] != 1 {
		t.Fatalf("test is stale: byte 8 of the batch is %#x, not its sub count", good.Data[8])
	}
}

// oversizeClaim is a 16-byte input whose first length prefix claims 2³¹ bytes.
func oversizeClaim(head ...byte) []byte {
	b := consensus.AppendUvarint(head, 1<<31)
	return append(b, make([]byte, 16-len(b))...)
}

// A hostile length prefix is refused against the bytes that remain, before
// anything is sized by it: the only allocations are the error's wrapping.
func TestDecodersRefuseOversizeWithoutAllocating(t *testing.T) {
	cmdID := consensus.Value{Data: string(oversizeClaim(1))}
	cmdSubs := consensus.Value{Data: string(oversizeClaim(4, 0, 0, 0))}
	record := appendWalEntry(nil, slotlog.Record{Kind: slotlog.RecDecide, Slot: 1})
	record = append(record[:walHeaderLen+8], oversizeClaim()...)
	snapshot := oversizeClaim(consensus.FormatVersion, 0) // sequence 0: the count of open slots
	suffix := oversizeClaim(0, 0)                         // applied 0, a suffix: the count of decided values
	store := oversizeClaim(0, 1, 0, 0, 0)                 // applied 0, part 0 of 1, no lease: the count of pairs
	refuse := map[string]func() error{
		"command id":   func() error { _, err := DecodeCommand(cmdID); return err },
		"command subs": func() error { _, err := DecodeCommand(cmdSubs); return err },
		"wal decide value": func() error {
			_, _, err := decodeWalEntry(record, 0)
			return err
		},
		"snapshot open slots": func() error { _, err := decodeSnapshot(snapshot); return err },
		"catch-up suffix":     func() error { return new(CatchupReply).DecodeBody(suffix) },
		"catch-up store":      func() error { return new(CatchupReply).DecodeBody(store) },
	}
	for name, fn := range refuse {
		var err error
		allocs := testing.AllocsPerRun(50, func() { err = fn() })
		if !errors.Is(err, consensus.ErrTruncated) {
			t.Errorf("%s: %v, want ErrTruncated", name, err)
		}
		// The input conversion, the result struct and fmt.Errorf: a handful
		// of small objects, nothing sized by the claim.
		if allocs > 4 {
			t.Errorf("%s: %v allocations refusing a 16-byte input", name, allocs)
		}
	}
}

func codecWalEntries() []slotlog.Record {
	v := consensus.Value{Key: 1 << 62, Data: "cmd\x00\xff"}
	return []slotlog.Record{
		{Kind: slotlog.RecDecide, G: 0, Slot: 0, Val: v},
		{Kind: slotlog.RecDecide, G: 15, Slot: 1 << 40, Val: consensus.Value{Key: 3, Data: strings.Repeat("\x80", 64<<10)}},
		{Kind: slotlog.RecState, G: 3, Slot: 77, State: core.State{
			Mode: core.ModeObject, InitialVal: v, Val: v, Proposer: 0, Decided: consensus.None, PendingMax: consensus.None}},
		{Kind: slotlog.RecState, G: 0, Slot: 5, State: core.State{
			Mode: core.ModeObject, InitialVal: consensus.None, Val: v, Proposer: 2, Bal: 7, VBal: 7, Decided: v, PendingMax: consensus.IntValue(9)}},
		{Kind: slotlog.RecSnap, G: 0, Slot: 0, Snap: codecSnapshots()[0]},
	}
}

func TestWalEntryCodecRoundTrip(t *testing.T) {
	for i, e := range codecWalEntries() {
		p := appendWalEntry(nil, e)
		got, mine, err := decodeWalEntry(p, e.G)
		if err != nil || !mine || !reflect.DeepEqual(got, e) {
			t.Fatalf("entry %d: decoded %+v, mine %t, %v", i, got, mine, err)
		}
		if again := appendWalEntry(nil, got); !bytes.Equal(again, p) {
			t.Fatalf("entry %d: re-encoding differs", i)
		}
		// Another group's record is told from the header: the body may be
		// anything.
		junk := append(p[:walHeaderLen:walHeaderLen], 0xff, 0xff)
		if _, mine, err := decodeWalEntry(junk, e.G+1); mine || err != nil {
			t.Fatalf("entry %d: a neighbour's record: mine %t, %v", i, mine, err)
		}
		if _, _, err := decodeWalEntry(junk, e.G); err == nil {
			t.Fatalf("entry %d: a junk body decoded", i)
		}
	}
	// The proposer's state record carries its command once, not twice.
	v := codecWalEntries()[2].State.Val
	if n := len(appendWalEntry(nil, codecWalEntries()[2])); n > walHeaderLen+8+len(consensus.AppendValue(nil, v)) {
		t.Fatalf("InitialVal == Val took %d bytes around a %d-byte value", n, len(v.Data))
	}
	for name, p := range map[string][]byte{
		"json":         []byte(`{"k":"d","slot":0,"v":{"key":1}}`),
		"short header": {consensus.FormatVersion, slotlog.RecDecide, 0, 0},
		"unknown kind": append([]byte{consensus.FormatVersion, 'x'}, make([]byte, 12)...),
	} {
		if _, _, err := decodeWalEntry(p, 0); err == nil {
			t.Errorf("%s record decoded", name)
		}
	}
	if _, _, err := decodeWalEntry([]byte(`{"k":"d"}`), 0); !errors.Is(err, consensus.ErrFormatVersion) {
		t.Errorf("json record: %v, want ErrFormatVersion", err)
	}
}

func codecSnapshots() []*slotlog.Snapshot {
	v := consensus.Value{Key: 1 << 62, Data: "cmd\x00\xff"}
	holder := 1
	return []*slotlog.Snapshot{
		{Cut: CatchupReply{Store: map[string]string{}}},
		{
			Cut: CatchupReply{
				Applied:     900,
				Store:       map[string]string{"a": "1", "b\xff": "", "": strings.Repeat("\x00", 64<<10)},
				Decided:     map[int]consensus.Value{901: v, 905: consensus.IntValue(4)},
				LeaseHolder: &holder, LeaseRemain: 1_999_999_999,
			},
			Seq: 4123,
			Slots: map[int]core.State{
				900: {Mode: core.ModeObject, InitialVal: v, Val: v, Proposer: 0, Decided: consensus.None, PendingMax: consensus.None},
				903: {Mode: core.ModeObject, InitialVal: consensus.None, Val: v, Proposer: 2, Bal: 6, VBal: 6, Decided: consensus.None, PendingMax: consensus.None},
			},
		},
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for i, s := range codecSnapshots() {
		blob := appendSnapshot(nil, s)
		got, err := decodeSnapshot(blob)
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("snapshot %d: decoded %+v, %v", i, got, err)
		}
		if again := appendSnapshot(nil, got); !bytes.Equal(again, blob) {
			t.Fatalf("snapshot %d: re-encoding differs", i)
		}
		for cut := 0; cut < len(blob) && cut < 200; cut++ {
			if _, err := decodeSnapshot(blob[:cut]); err == nil {
				t.Fatalf("snapshot %d: %d-byte prefix decoded", i, cut)
			}
		}
	}
	if _, err := decodeSnapshot([]byte(`{"applied":1,"store":{}}`)); !errors.Is(err, consensus.ErrFormatVersion) {
		t.Errorf("json snapshot: %v, want ErrFormatVersion", err)
	}
}

func codecCatchupReplies() []*CatchupReply {
	v := consensus.Value{Key: 1 << 62, Data: "cmd\x00\xff"}
	holder := 2
	return []*CatchupReply{
		{},
		{Applied: 40, Decided: map[int]consensus.Value{38: v, 39: consensus.IntValue(4)}},
		{Applied: 40, Store: map[string]string{}},
		{Applied: 40, Part: 1, Last: 3, Store: map[string]string{"a": "1", "b\xff": ""}},
		{Applied: 40, Part: 3, Last: 3, Store: map[string]string{"z": ""}, Decided: map[int]consensus.Value{41: v}, LeaseHolder: &holder, LeaseRemain: 5},
	}
}

// TestCatchupReplyCodec: both forms round-trip to the same bytes, and the
// decoder refuses what the encoder never writes — pairs or slots out of
// order, a part past the last, a form flag that is not one.
func TestCatchupReplyCodec(t *testing.T) {
	for i, m := range codecCatchupReplies() {
		body := m.AppendBody(nil)
		var got CatchupReply
		if err := got.DecodeBody(body); err != nil || !reflect.DeepEqual(&got, m) {
			t.Fatalf("reply %d: decoded %+v, %v", i, got, err)
		}
		if again := got.AppendBody(nil); !bytes.Equal(again, body) {
			t.Fatalf("reply %d: re-encoding differs", i)
		}
		for cut := 0; cut < len(body); cut++ {
			if new(CatchupReply).DecodeBody(body[:cut]) == nil {
				t.Fatalf("reply %d: %d-byte prefix decoded", i, cut)
			}
		}
	}
	swap := func(b []byte, old, new string) []byte {
		out := bytes.Replace(b, []byte(old), []byte(new), 1)
		if bytes.Equal(out, b) {
			t.Fatalf("test is stale: %q not found in the encoding", old)
		}
		return out
	}
	// Applied 3, a suffix, two decided values: slot 2, then slot 1.
	suffix := consensus.AppendUvarint(consensus.AppendBool(consensus.AppendVarint(nil, 3), false), 2)
	for _, n := range []int64{2, 1} {
		suffix = consensus.AppendValue(consensus.AppendVarint(suffix, n), consensus.IntValue(7))
	}
	part := (&CatchupReply{Applied: 3, Part: 1, Last: 2, Store: map[string]string{"a": "1", "b": "2"}}).AppendBody(nil)
	for name, body := range map[string][]byte{
		"suffix slots out of order": suffix,
		"pairs out of order":        swap(part, "\x01a\x011\x01b\x012", "\x01b\x012\x01a\x011"),
		"part past the last":        swap(part, "\x06\x01\x01\x02", "\x06\x01\x03\x02"), // applied 3, part form, part 3 of 0..2
		"form flag 2":               swap(part, "\x06\x01\x01", "\x06\x02\x01"),
	} {
		if err := new(CatchupReply).DecodeBody(body); !errors.Is(err, consensus.ErrNotCanonical) {
			t.Errorf("%s: %v, want ErrNotCanonical", name, err)
		}
	}
}

// FuzzCatchupReplyDecode: no input panics the catch-up decoder in either
// form, and whatever it accepts is the one encoding of what it decoded.
func FuzzCatchupReplyDecode(f *testing.F) {
	for _, m := range codecCatchupReplies() {
		f.Add(m.AppendBody(nil))
	}
	f.Add(oversizeClaim(0, 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, body []byte) {
		var m CatchupReply
		if m.DecodeBody(body) != nil {
			return
		}
		if m.Part > m.Last || (m.Store == nil && (m.Part != 0 || m.Last != 0 || m.LeaseHolder != nil)) {
			t.Fatalf("decoded %x into part %d of %d, store %t, lease %t", body, m.Part, m.Last, m.Store != nil, m.LeaseHolder != nil)
		}
		if again := m.AppendBody(nil); !bytes.Equal(again, body) {
			t.Fatalf("decoded %x, re-encoded %x", body, again)
		}
	})
}

// FuzzCommandDecode: no input panics the command decoder, and whatever it
// accepts is the one encoding of what it decoded.
func FuzzCommandDecode(f *testing.F) {
	for _, cmd := range codecCommands() {
		if v, _ := cmd.Encode(); len(v.Data) < 4<<10 {
			f.Add([]byte(v.Data))
		}
	}
	f.Add(oversizeClaim(1))
	f.Add([]byte(`{"id":"p0-1","op":"put"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := consensus.Value{Data: string(data)}
		cmd, err := DecodeCommand(v)
		if err != nil {
			return
		}
		again, err := cmd.Encode()
		if err != nil || again.Data != v.Data {
			t.Fatalf("decoded %x, re-encoded %x (%v)", data, again.Data, err)
		}
	})
}

// FuzzWalEntryDecode: the same for a WAL record payload.
func FuzzWalEntryDecode(f *testing.F) {
	for _, e := range codecWalEntries() {
		if p := appendWalEntry(nil, e); len(p) < 4<<10 {
			f.Add(p)
		}
	}
	f.Add([]byte(`{"k":"s","slot":3,"st":{"mode":2}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, mine, err := decodeWalEntry(payload, 0)
		if err != nil || !mine {
			return
		}
		if again := appendWalEntry(nil, e); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x, re-encoded %x", payload, again)
		}
	})
}

// FuzzDurableSnapshotDecode: the same for a snapshot blob.
func FuzzDurableSnapshotDecode(f *testing.F) {
	for _, s := range codecSnapshots() {
		if blob := appendSnapshot(nil, s); len(blob) < 4<<10 {
			f.Add(blob)
		}
	}
	small := codecSnapshots()[1]
	delete(small.Cut.Store, "")
	f.Add(appendSnapshot(nil, small))
	f.Add([]byte(`{"applied":1,"store":{"a":"1"},"walNext":1}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := decodeSnapshot(blob)
		if err != nil {
			return
		}
		if again := appendSnapshot(nil, s); !bytes.Equal(again, blob) {
			t.Fatalf("decoded %x, re-encoded %x", blob, again)
		}
	})
}
