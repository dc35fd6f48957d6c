package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/transport"
)

// Span names: one per seam the harness owns.
const (
	spanPass   = "pass"           // the traced window; parent of everything else
	spanPut    = "client.put"     // SessionClient PUT, issue (or due time) to ack
	spanGetL   = "client.getl"    // SessionClient GETL
	spanSend   = "transport.send" // Transport.Send as the runtime calls it: encode + enqueue
	spanHandle = "smr.handle"     // inbound message: mux, Replica.Handle, core (lock wait included)
)

// maxSpans bounds the trace kept in memory (and the file written at exit);
// spans beyond it are counted, not kept.
const maxSpans = 200_000

// span is one timed call across a layer boundary. The program carries no
// request id, so sends and handles hang off the pass span, not the client
// op that caused them; spans inside the program are a later change.
type span struct {
	name       string
	node       int // replica the call ran on; -1 for client spans
	start, end int64
	id, parent uint64
}

// tracer collects spans and per-seam busy time while on; while off the
// wrappers cost one atomic load per call.
type tracer struct {
	workload string
	base     time.Time
	on       atomic.Bool
	nextID   atomic.Uint64
	passID   uint64
	kept     atomic.Int64
	dropped  atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one source's span list (a replica's sends, a connection's
// ops), so sources do not contend on one lock.
type spanBuf struct {
	t     *tracer
	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records one span under the current pass.
func (b *spanBuf) add(name string, node int, start, end time.Time) {
	t := b.t
	if t.kept.Add(1) > maxSpans {
		t.kept.Add(-1)
		t.dropped.Add(1)
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, span{
		name: name, node: node,
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)),
		id: t.nextID.Add(1), parent: t.passID,
	})
	b.mu.Unlock()
}

// begin turns tracing on and opens the pass span; end closes it.
func (t *tracer) begin() (passStart time.Time) {
	t.passID = t.nextID.Add(1)
	t.on.Store(true)
	return time.Now()
}

func (t *tracer) end(passStart time.Time) {
	t.on.Store(false)
	b := t.buf()
	b.spans = append(b.spans, span{
		name: spanPass, node: -1,
		start: int64(passStart.Sub(t.base)), end: int64(time.Since(t.base)),
		id: t.passID,
	})
	t.kept.Add(1)
}

// write dumps the spans as JSON lines: name, start and end in microseconds
// since the child started, id, parent (0 = none), node and workload.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	t.mu.Lock()
	bufs := t.bufs
	t.mu.Unlock()
	for _, b := range bufs {
		b.mu.Lock()
		for _, s := range b.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","start_us":`...)
			line = strconv.AppendFloat(line, float64(s.start)/1e3, 'f', 1, 64)
			line = append(line, `,"end_us":`...)
			line = strconv.AppendFloat(line, float64(s.end)/1e3, 'f', 1, 64)
			line = append(line, `,"id":`...)
			line = strconv.AppendUint(line, s.id, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendUint(line, s.parent, 10)
			line = append(line, `,"node":`...)
			line = strconv.AppendInt(line, int64(s.node), 10)
			line = append(line, `,"workload":"`...)
			line = append(line, t.workload...)
			line = append(line, "\"}\n"...)
			w.Write(line)
		}
		b.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// seam accumulates calls and busy time of one wrapped boundary.
type seam struct {
	calls  atomic.Int64
	busyNs atomic.Int64
}

// tracedTransport wraps the transport a runtime sends through. Send is the
// only call it times; everything else is the inner transport's.
type tracedTransport struct {
	transport.Transport
	t    *tracer
	buf  *spanBuf
	node int
	seam *seam
}

func (t *tracer) wrapTransport(node int, inner transport.Transport, s *seam) *tracedTransport {
	return &tracedTransport{Transport: inner, t: t, buf: t.buf(), node: node, seam: s}
}

func (w *tracedTransport) Send(to consensus.ProcessID, msg consensus.Message) error {
	if !w.t.on.Load() {
		return w.Transport.Send(to, msg)
	}
	t0 := time.Now()
	err := w.Transport.Send(to, msg)
	t1 := time.Now()
	w.seam.calls.Add(1)
	w.seam.busyNs.Add(int64(t1.Sub(t0)))
	w.buf.add(spanSend, w.node, t0, t1)
	return err
}

// wrapHandler wraps the handler a runtime gives its transport.
func (t *tracer) wrapHandler(node int, inner transport.Handler, s *seam) transport.Handler {
	buf := t.buf()
	return func(from consensus.ProcessID, msg consensus.Message) {
		if !t.on.Load() {
			inner(from, msg)
			return
		}
		t0 := time.Now()
		inner(from, msg)
		t1 := time.Now()
		s.calls.Add(1)
		s.busyNs.Add(int64(t1.Sub(t0)))
		buf.add(spanHandle, node, t0, t1)
	}
}
