package consensus

import (
	"strings"
	"testing"
)

type stubMsg struct{}

func (stubMsg) Kind() string                 { return "stub.msg" }
func (stubMsg) AppendBody(dst []byte) []byte { return dst }
func (stubMsg) DecodeBody([]byte) error      { return nil }

func TestEffectStrings(t *testing.T) {
	cases := []struct {
		eff  Effect
		want string
	}{
		{Send{To: 3, Msg: stubMsg{}}, "send stub.msg to p3"},
		{Broadcast{Msg: stubMsg{}, Self: true}, "broadcast stub.msg to Π"},
		{Broadcast{Msg: stubMsg{}}, "broadcast stub.msg to Π∖self"},
		{StartTimer{Timer: "t", After: 20}, "start timer t +20"},
		{StopTimer{Timer: "t"}, "stop timer t"},
		{Decide{Value: IntValue(7)}, "decide v(7)"},
	}
	for _, c := range cases {
		if got := c.eff.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.eff, got, c.want)
		}
	}
}

func TestLeaderOracles(t *testing.T) {
	if got := FixedLeader(4).Leader(); got != 4 {
		t.Errorf("FixedLeader = %v", got)
	}
	calls := 0
	f := LeaderFunc(func() ProcessID { calls++; return 2 })
	if got := f.Leader(); got != 2 || calls != 1 {
		t.Errorf("LeaderFunc = %v calls=%d", got, calls)
	}
}

func TestIDStrings(t *testing.T) {
	if got := ProcessID(5).String(); got != "p5" {
		t.Errorf("ProcessID.String = %q", got)
	}
	if got := Ballot(7).String(); got != "b7" {
		t.Errorf("Ballot.String = %q", got)
	}
	if !Ballot(0).Fast() || Ballot(1).Fast() {
		t.Error("Fast() wrong")
	}
}

// stubProto records which entry points ran, for Recorder/Replay coverage.
type stubProto struct {
	log []string
}

func (s *stubProto) ID() ProcessID { return 0 }
func (s *stubProto) Start() []Effect {
	s.log = append(s.log, "start")
	return []Effect{StartTimer{Timer: "t", After: 1}}
}
func (s *stubProto) Propose(v Value) []Effect {
	s.log = append(s.log, "propose:"+v.String())
	return nil
}
func (s *stubProto) Deliver(from ProcessID, m Message) []Effect {
	s.log = append(s.log, "deliver:"+from.String()+":"+m.Kind())
	return nil
}
func (s *stubProto) Tick(t TimerID) []Effect {
	s.log = append(s.log, "tick:"+string(t))
	return nil
}
func (s *stubProto) Decision() (Value, bool) { return None, false }

func TestRecorderReplayOnStub(t *testing.T) {
	rec := NewRecorder(&stubProto{})
	rec.Start()
	rec.Propose(IntValue(1))
	rec.Deliver(2, stubMsg{})
	rec.Tick("t")
	if rec.ID() != 0 {
		t.Fatal("ID passthrough")
	}
	if _, ok := rec.Decision(); ok {
		t.Fatal("Decision passthrough")
	}
	if len(rec.Events()) != 4 {
		t.Fatalf("events = %d", len(rec.Events()))
	}

	fresh := &stubProto{}
	batches := Replay(rec.Events(), fresh)
	if len(batches) != 4 {
		t.Fatalf("replay batches = %d", len(batches))
	}
	want := strings.Join([]string{"start", "propose:v(1)", "deliver:p2:stub.msg", "tick:t"}, ",")
	if got := strings.Join(fresh.log, ","); got != want {
		t.Fatalf("replay log = %q, want %q", got, want)
	}
	if err := CheckReplayEquivalence(rec.Events(), func() Protocol { return &stubProto{} }); err != nil {
		t.Fatal(err)
	}
}
