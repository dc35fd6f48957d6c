package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/consensus"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Propose(consensus.IntValue(5))
	n.Deliver(1, &ProposeMsg{Value: consensus.IntValue(7)}) // vote
	n.Deliver(2, &OneA{Ballot: 6})                          // join slow ballot

	data := n.AppendState(nil)
	fresh := newTestNode(t, 0, ModeTask)
	if err := fresh.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if fresh.Snapshot() != n.Snapshot() {
		t.Fatalf("state mismatch:\n%+v\n%+v", fresh.Snapshot(), n.Snapshot())
	}

	// The restored node honours its vote and ballot like the original.
	if effs := fresh.Deliver(3, &ProposeMsg{Value: consensus.IntValue(9)}); len(effs) != 0 {
		t.Fatalf("restored node voted again on the fast ballot: %v", effs)
	}
	if effs := fresh.Deliver(3, &OneA{Ballot: 4}); len(effs) != 0 {
		t.Fatalf("restored node accepted a stale ballot: %v", effs)
	}
	effs := fresh.Deliver(3, &OneA{Ballot: 10})
	ok := false
	for _, e := range effs {
		if s, isSend := e.(consensus.Send); isSend {
			if ob, is1b := s.Msg.(*OneB); is1b {
				ok = true
				if ob.Val != consensus.IntValue(7) || ob.Proposer != 1 {
					t.Fatalf("restored 1B carries wrong vote: %v", ob)
				}
			}
		}
	}
	if !ok {
		t.Fatalf("restored node did not answer a higher ballot: %v", effs)
	}
}

func TestRestoreDecidedNodeAnswersStragglers(t *testing.T) {
	n := newTestNode(t, 0, ModeObject)
	n.Deliver(1, &DecideMsg{Value: consensus.IntValue(4)})
	snap := n.Snapshot()

	fresh := newTestNode(t, 0, ModeObject)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Decision(); !ok || v != consensus.IntValue(4) {
		t.Fatalf("Decision after restore = %v %v", v, ok)
	}
	effs := fresh.Deliver(2, &ProposeMsg{Value: consensus.IntValue(9)})
	if !effectsContain(effs, isSendKind(KindDecide)) {
		t.Fatalf("restored decided node silent to straggler: %v", effs)
	}
}

func TestRestoreModeMismatch(t *testing.T) {
	task := newTestNode(t, 0, ModeTask)
	snap := task.Snapshot()
	object := newTestNode(t, 0, ModeObject)
	if err := object.Restore(snap); err == nil {
		t.Fatal("mode mismatch accepted")
	}
}

// A JSON-era journal record is refused by the version byte, by name; a
// truncated binary one is refused too.
func TestRestoreBadJSON(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	err := n.RestoreState([]byte(`{"mode":1,"initialVal":{"key":5},"val":{"key":5},"proposer":0,"bal":0,"vbal":0}`))
	if !errors.Is(err, consensus.ErrFormatVersion) {
		t.Fatalf("JSON state: %v, want ErrFormatVersion", err)
	}
	n.Propose(consensus.IntValue(5))
	data := n.AppendState(nil)
	if err := n.RestoreState(data[:len(data)-1]); !errors.Is(err, consensus.ErrTruncated) {
		t.Fatalf("truncated state: %v, want ErrTruncated", err)
	}
}

// AppendState writes each distinct value once, and DecodeState accepts only
// that numbering: one canonical form.
func TestStateCodecCanonical(t *testing.T) {
	a, b := consensus.Value{Key: 7, Data: "a"}, consensus.Value{Key: 9, Data: "\x00\xffb"}
	states := []State{
		{Mode: ModeObject, InitialVal: consensus.None, Val: consensus.None, Proposer: consensus.NoProcess, Decided: consensus.None, PendingMax: consensus.None},
		{Mode: ModeObject, InitialVal: a, Val: a, Proposer: 0, Decided: consensus.None, PendingMax: consensus.None},
		{Mode: ModeTask, InitialVal: a, Val: b, Proposer: 3, Bal: 12, VBal: 6, Decided: b, PendingMax: a},
		{Mode: ModeObject, InitialVal: consensus.None, Val: a, Proposer: 1, Decided: a, PendingMax: b},
	}
	for i, s := range states {
		enc := AppendState(nil, s)
		d := consensus.NewDecoder(enc)
		got := DecodeState(&d)
		if err := d.Finish(); err != nil || got != s {
			t.Fatalf("state %d: decoded %+v, %v", i, got, err)
		}
		if re := AppendState(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("state %d: re-encoded %x, want %x", i, re, enc)
		}
	}
	// The proposer's record carries its command once.
	one := len(consensus.AppendValue(nil, a))
	if n := len(AppendState(nil, states[1])); n >= 2*one+8 {
		t.Fatalf("InitialVal == Val took %d bytes, a value is %d", n, one)
	}
	// The same state numbered differently, a repeated table entry, and ⊥ in
	// the table are all refused.
	good := AppendState(nil, states[2]) // refs 1 2 2 1
	for name, mut := range map[string]func([]byte) []byte{
		"ref skips ahead":  func(b []byte) []byte { b[4] = 2; return b },
		"ref out of range": func(b []byte) []byte { b[5] = 9; return b },
		"trailing byte":    func(b []byte) []byte { return append(b, 0) },
	} {
		bad := mut(append([]byte(nil), good...))
		d := consensus.NewDecoder(bad)
		DecodeState(&d)
		if d.Finish() == nil {
			t.Errorf("%s: accepted %x", name, bad)
		}
	}
	c := consensus.Value{Key: 8, Data: "c"} // a's size
	dup := AppendState(nil, State{Mode: ModeObject, InitialVal: a, Val: c, Decided: consensus.None, PendingMax: consensus.None})
	copy(dup[len(dup)-one:], consensus.AppendValue(nil, a))
	d := consensus.NewDecoder(dup)
	DecodeState(&d)
	if d.Finish() == nil {
		t.Errorf("repeated table entry accepted: %x", dup)
	}
}
