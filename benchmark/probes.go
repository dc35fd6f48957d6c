package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// layerProbes times each module's public functions directly, with no
// cluster running: what one call costs when nothing contends. dir is a
// scratch directory for the WAL and snapshot probes.
func layerProbes(out metrics, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, probe := range []func(metrics, string) error{
		probeCommand, probeCodec, probeCore, probeRouter,
		probeTransport, probeWAL, probeStorage,
	} {
		if err := probe(out, dir); err != nil {
			return err
		}
	}
	return nil
}

// timeLoop runs fn n times and returns nanoseconds and heap allocations per
// call.
func timeLoop(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var probeCmd = smr.Command{ID: "p0-123456", Op: smr.OpPut, Key: "c0-k17", Val: value(4711)}

// probeCommand: the one encode and one decode every client write pays.
func probeCommand(out metrics, _ string) error {
	const n = 20000
	v, _ := probeCmd.Encode()
	if c, err := smr.DecodeCommand(v); err != nil || !reflect.DeepEqual(c, probeCmd) {
		return fmt.Errorf("command round trip: %+v, %v", c, err)
	}
	ns, allocs := timeLoop(n, func() { v, _ = probeCmd.Encode() })
	out.set("smr.cmd_encode_ns", ns, "ns", n)
	out.set("smr.cmd_encode_allocs", allocs, "count", n)
	ns, _ = timeLoop(n, func() { smr.DecodeCommand(v) })
	out.set("smr.cmd_decode_ns", ns, "ns", n)
	return nil
}

// probeCodec: a fast-path vote as it crosses the wire of a sharded process —
// core.TwoB in a SlotMessage in a GroupMessage — encoded and decoded through
// the same three layers the send and receive paths use.
func probeCodec(out metrics, _ string) error {
	const n = 10000
	wire := consensus.NewCodec()
	shard.RegisterMessages(wire)
	slots := consensus.NewCodec()
	smr.RegisterMessages(slots)
	inner := consensus.NewCodec()
	core.RegisterMessages(inner)

	val, _ := probeCmd.Encode()
	vote := &core.TwoB{Ballot: 0, Value: val}
	var frame []byte
	encode := func() {
		body, _ := consensus.MarshalPooled(vote)
		slot, _ := consensus.MarshalPooled(&smr.SlotMessage{Slot: 123456, InnerKind: vote.Kind(), InnerBody: body})
		frame, _ = wire.Encode(&shard.GroupMessage{Group: 3, InnerKind: smr.KindSlot, InnerBody: slot})
	}
	var got consensus.Message
	decode := func() error {
		m, err := wire.Decode(frame)
		if err != nil {
			return err
		}
		gm := m.(*shard.GroupMessage)
		m, err = slots.DecodeBody(gm.InnerKind, gm.InnerBody)
		if err != nil {
			return err
		}
		sm := m.(*smr.SlotMessage)
		got, err = inner.DecodeBody(sm.InnerKind, sm.InnerBody)
		return err
	}
	encode()
	if err := decode(); err != nil {
		return fmt.Errorf("codec round trip: %w", err)
	}
	if tb, ok := got.(*core.TwoB); !ok || tb.Value != val {
		return fmt.Errorf("codec round trip returned %v", got)
	}
	ns, allocs := timeLoop(n, encode)
	out.set("consensus.encode_ns", ns, "ns", n)
	out.set("consensus.encode_allocs", allocs, "count", n)
	ns, _ = timeLoop(n, func() { decode() })
	out.set("consensus.decode_ns", ns, "ns", n)
	out.set("consensus.frame_bytes", float64(len(frame)), "B", 1)
	return nil
}

// probeCore: one object-mode instance in memory, no I/O — propose at p0 and
// deliver every message until every node has decided.
func probeCore(out metrics, _ string) error {
	val, _ := probeCmd.Encode()
	type envelope struct {
		from, to consensus.ProcessID
		msg      consensus.Message
	}
	decideAll := func(n, f, e int) error {
		nodes := make([]*core.Node, n)
		for i := range nodes {
			cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
			node, err := core.New(cfg, core.ModeObject, consensus.FixedLeader(0))
			if err != nil {
				return err
			}
			node.Start()
			nodes[i] = node
		}
		var queue []envelope
		emit := func(from consensus.ProcessID, effects []consensus.Effect) {
			for _, eff := range effects {
				switch x := eff.(type) {
				case consensus.Send:
					queue = append(queue, envelope{from, x.To, x.Msg})
				case consensus.Broadcast:
					for to := range nodes {
						if x.Self || consensus.ProcessID(to) != from {
							queue = append(queue, envelope{from, consensus.ProcessID(to), x.Msg})
						}
					}
				}
			}
		}
		emit(0, nodes[0].Propose(val))
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			emit(m.to, nodes[m.to].Deliver(m.from, m.msg))
		}
		for i, node := range nodes {
			if v, ok := node.Decision(); !ok || v != val {
				return fmt.Errorf("core probe n=%d: node %d decided %v, %v", n, i, v, ok)
			}
		}
		return nil
	}
	const rounds = 2000
	for _, shape := range []struct {
		name    string
		n, f, e int
	}{{"n3", 3, 1, 1}, {"n5", 5, 2, 2}} {
		if err := decideAll(shape.n, shape.f, shape.e); err != nil {
			return err
		}
		ns, allocs := timeLoop(rounds, func() { decideAll(shape.n, shape.f, shape.e) })
		out.set("core.decide_us."+shape.name, ns/1e3, "us", rounds)
		if shape.name == "n3" {
			out.set("core.decide_allocs.n3", allocs, "count", rounds)
		}
	}
	return nil
}

func probeRouter(out metrics, _ string) error {
	const n = 200000
	r := shard.NewHashRouter(4)
	keys := newLedger(1).keys
	sink := 0
	ns, _ := timeLoop(n, func() { sink += r.Group(keys[sink%len(keys)]) })
	out.set("shard.route_ns", ns, "ns", n)
	return nil
}

// probeTransport: one-way delivery time over loopback TCP and over the
// in-memory mesh, one message at a time.
func probeTransport(out metrics, _ string) error {
	const n = 2000
	codec := consensus.NewCodec()
	shard.RegisterMessages(codec)
	msg := &shard.GroupMessage{Group: 0, InnerKind: smr.KindSlot, InnerBody: []byte(`{"slot":1,"innerKind":"x","innerBody":null}`)}

	oneWay := func(send func() error, arrived <-chan struct{}) (sample, error) {
		var s sample
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := send(); err != nil {
				return nil, err
			}
			select {
			case <-arrived:
				s = append(s, int64(time.Since(t0)))
			case <-time.After(5 * time.Second):
				return nil, fmt.Errorf("transport probe: message %d never arrived", i)
			}
		}
		return s, nil
	}
	arrived := make(chan struct{}, 1)
	sink := func(consensus.ProcessID, consensus.Message) { arrived <- struct{}{} }
	drop := func(consensus.ProcessID, consensus.Message) {}

	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := transport.NewTCP(0, addrs, codec, drop)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCP(1, addrs, codec, sink)
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr())
	s, err := oneWay(func() error { return a.Send(1, msg) }, arrived)
	if err != nil {
		return err
	}
	v, _ := s.percentile(0.5)
	out.set("transport.tcp_oneway_us", v*1e3, "us", len(s))

	mesh := transport.NewMesh(2)
	defer mesh.Close()
	ma, err := mesh.Endpoint(0, drop)
	if err != nil {
		return err
	}
	if _, err := mesh.Endpoint(1, sink); err != nil {
		return err
	}
	s, err = oneWay(func() error { return ma.Send(1, msg) }, arrived)
	if err != nil {
		return err
	}
	v, _ = s.percentile(0.5)
	out.set("transport.mesh_oneway_us", v*1e3, "us", len(s))
	return nil
}

// probeWAL: the append, the fsync, what group commit saves two concurrent
// committers, and replay.
func probeWAL(out metrics, dir string) error {
	payload := bytes.Repeat([]byte("w"), 256)

	open := func(name string, policy wal.SyncPolicy) (*wal.WAL, error) {
		w, _, err := wal.Open(filepath.Join(dir, name), wal.Options{Policy: policy})
		return w, err
	}

	// Buffered appends, never synced; the same log then times replay.
	const appends = 10000
	w, err := open("append", wal.SyncNever)
	if err != nil {
		return err
	}
	ns, _ := timeLoop(appends, func() { _, err = w.AppendBuffered(payload) })
	if err != nil {
		w.Close()
		return err
	}
	out.set("wal.append_us", ns/1e3, "us", appends)
	if err := w.Close(); err != nil {
		return err
	}
	if w, err = open("append", wal.SyncNever); err != nil {
		return err
	}
	t0 := time.Now()
	info, err := w.Replay(1, func(uint64, []byte) error { return nil })
	replay := time.Since(t0)
	w.Close()
	if err != nil || info.Records != appends {
		return fmt.Errorf("wal replay: %d of %d records, %v", info.Records, appends, err)
	}
	out.set("wal.replay_us_per_rec", float64(replay.Microseconds())/appends, "us", appends)

	// Serial appends, each on stable storage before the next.
	const syncs = 200
	if w, err = open("fsync", wal.SyncAlways); err != nil {
		return err
	}
	var lat sample
	for i := 0; i < syncs; i++ {
		t0 := time.Now()
		if _, err := w.Append(payload); err != nil {
			w.Close()
			return err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	w.Close()
	v, _ := lat.percentile(0.5)
	out.set("wal.fsync_us", v*1e3, "us", len(lat))

	// Two committers at once: fsyncs per record under group commit.
	if w, err = open("group", wal.SyncAlways); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < syncs && errs[c] == nil; i++ {
				var idx uint64
				if idx, errs[c] = w.AppendBuffered(payload); errs[c] == nil {
					errs[c] = w.Commit(idx)
				}
			}
		}(c)
	}
	wg.Wait()
	st := w.Stats()
	w.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	out.set("wal.group_fsyncs_per_rec", float64(st.Syncs)/float64(2*syncs), "count", 2*syncs)
	return nil
}

// probeStorage: one 1 MiB snapshot saved (fsynced, renamed) and loaded.
func probeStorage(out metrics, dir string) error {
	const rounds = 5
	data := bytes.Repeat([]byte("snapshot"), 1<<17)
	snapDir := filepath.Join(dir, "snap")
	var save, load sample
	for i := 1; i <= rounds; i++ {
		t0 := time.Now()
		if err := storage.Save(snapDir, uint64(i), data); err != nil {
			return err
		}
		save = append(save, int64(time.Since(t0)))
		t0 = time.Now()
		idx, got, ok, err := storage.Load(snapDir)
		if err != nil || !ok || idx != uint64(i) || len(got) != len(data) {
			return fmt.Errorf("snapshot load: index %d ok=%v len=%d: %v", idx, ok, len(got), err)
		}
		load = append(load, int64(time.Since(t0)))
	}
	v, _ := save.percentile(0.5)
	out.set("storage.save_ms", v, "ms", rounds)
	v, _ = load.percentile(0.5)
	out.set("storage.load_ms", v, "ms", rounds)
	return nil
}
