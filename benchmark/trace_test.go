package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// What the Send wrapper counts while tracing is on must equal what the
// transport's own Stats say went out, and the handler wrapper must see each
// of those arrive; with tracing off neither counts anything.
func TestWrapperAccountingMatchesTransportStats(t *testing.T) {
	codec := consensus.NewCodec()
	shard.RegisterMessages(codec)
	tr := newTracer("test")
	var sends, handles seam
	arrived := make(chan struct{}, 1024)
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := transport.NewTCP(0, addrs, codec, func(consensus.ProcessID, consensus.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewTCP(1, addrs, codec,
		tr.wrapHandler(1, func(consensus.ProcessID, consensus.Message) { arrived <- struct{}{} }, &handles))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr())
	wrapped := tr.wrapTransport(0, a, &sends)
	msg := &shard.GroupMessage{InnerKind: smr.KindSlot, InnerBody: []byte(`{"slot":1,"innerKind":"x","innerBody":null}`)}

	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := wrapped.Send(1, msg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatalf("message %d of %d never arrived", i, n)
			}
		}
	}

	send(10) // tracing off
	if sends.calls.Load() != 0 || handles.calls.Load() != 0 {
		t.Fatalf("wrappers counted with tracing off: sends=%d handles=%d", sends.calls.Load(), handles.calls.Load())
	}

	const n = 200
	before := a.Stats()
	pass := tr.begin()
	send(n)
	tr.end(pass)
	after := a.Stats()
	if got := after.Sends - before.Sends; got != n || sends.calls.Load() != n {
		t.Errorf("Stats.Sends delta = %d, wrapper counted %d, want both %d", got, sends.calls.Load(), n)
	}
	if handles.calls.Load() != n {
		t.Errorf("handler wrapper counted %d, want %d", handles.calls.Load(), n)
	}
	if sends.busyNs.Load() <= 0 || handles.busyNs.Load() <= 0 {
		t.Errorf("busy time not recorded: sends=%d handles=%d", sends.busyNs.Load(), handles.busyNs.Load())
	}

	// The trace file: one line per span, every span a child of the pass.
	path := filepath.Join(t.TempDir(), "out", "trace-test.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	var passID uint64
	var parents []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name       string
			ID, Parent uint64
			Workload   string
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		counts[s.Name]++
		if s.Workload != "test" {
			t.Fatalf("span without workload: %q", sc.Text())
		}
		if s.Name == spanPass {
			passID = s.ID
		} else {
			parents = append(parents, s.Parent)
		}
	}
	if counts[spanSend] != n || counts[spanHandle] != n || counts[spanPass] != 1 {
		t.Errorf("span counts = %v, want %d sends, %d handles, 1 pass", counts, n, n)
	}
	for _, p := range parents {
		if p != passID {
			t.Fatalf("span parent %d, want the pass span %d", p, passID)
		}
	}
}
