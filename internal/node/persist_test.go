package node_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/transport"
)

type persistMsg struct{}

func (persistMsg) Kind() string                 { return "test.persist" }
func (persistMsg) AppendBody(dst []byte) []byte { return dst }
func (persistMsg) DecodeBody([]byte) error      { return nil }

// shouter broadcasts on every Propose so tests can watch whether a step's
// outbound traffic survives the persistence hook.
type shouter struct{ id consensus.ProcessID }

func (s *shouter) ID() consensus.ProcessID { return s.id }
func (s *shouter) Start() []consensus.Effect {
	return nil
}
func (s *shouter) Propose(consensus.Value) []consensus.Effect {
	return []consensus.Effect{consensus.Broadcast{Msg: persistMsg{}}}
}
func (s *shouter) Deliver(consensus.ProcessID, consensus.Message) []consensus.Effect { return nil }
func (s *shouter) Tick(consensus.TimerID) []consensus.Effect                         { return nil }
func (s *shouter) Decision() (consensus.Value, bool)                                 { return consensus.None, false }

func TestPersistHookRunsBeforeFlushAndCloserOnClose(t *testing.T) {
	mesh := transport.NewMesh(2)
	defer mesh.Close()

	var received atomic.Int64
	if _, err := mesh.Endpoint(1, func(consensus.ProcessID, consensus.Message) {
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	host := node.New(2, nil, time.Millisecond, &shouter{id: 0})
	tr, err := mesh.Endpoint(0, host.Handle)
	if err != nil {
		t.Fatal(err)
	}
	host.BindTransport(tr)

	var steps, closes atomic.Int64
	host.SetPersist(func() error {
		steps.Add(1)
		return nil
	}, func() error {
		closes.Add(1)
		return nil
	})
	host.Start()
	host.Propose(consensus.IntValue(1))
	if steps.Load() < 2 { // Start + Propose
		t.Fatalf("persist step ran %d times, want >= 2", steps.Load())
	}
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broadcast never delivered despite successful persist")
		}
		time.Sleep(time.Millisecond)
	}
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	if closes.Load() != 1 {
		t.Fatalf("closer ran %d times, want 1", closes.Load())
	}
	if err := host.PersistErr(); err != nil {
		t.Fatalf("unexpected persist error: %v", err)
	}
}

func TestPersistFailureDropsOutboundAndClosesHost(t *testing.T) {
	mesh := transport.NewMesh(2)
	defer mesh.Close()

	var received atomic.Int64
	if _, err := mesh.Endpoint(1, func(consensus.ProcessID, consensus.Message) {
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	host := node.New(2, nil, time.Millisecond, &shouter{id: 0})
	tr, err := mesh.Endpoint(0, host.Handle)
	if err != nil {
		t.Fatal(err)
	}
	host.BindTransport(tr)
	defer host.Close()

	boom := errors.New("disk full")
	host.SetPersist(func() error { return boom }, nil)
	host.Start()
	host.Propose(consensus.IntValue(7))
	// Persisting the proposal failed: its broadcast must never escape.
	time.Sleep(50 * time.Millisecond)
	if received.Load() != 0 {
		t.Fatalf("%d messages escaped an unjournaled step", received.Load())
	}
	if !errors.Is(host.PersistErr(), boom) {
		t.Fatalf("PersistErr = %v, want %v", host.PersistErr(), boom)
	}
}
