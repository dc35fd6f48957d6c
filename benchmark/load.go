package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smr"
)

// kvConn is what the generator needs of a client connection;
// *smr.SessionClient is the real one, tests substitute a fake.
type kvConn interface {
	Put(key, val string) error
	GetLinearizable(key string) (string, error)
}

// Windows an op can complete in. Only the two measured ones are recorded.
const (
	winNone     = -1 // warm-up, between windows
	winUntraced = 0
	winTraced   = 1
)

// opRec is one completed operation of a measured window.
type opRec struct {
	due    int64 // ns since generator start: issue time (closed loop) or scheduled time (open loop)
	issue  int64 // when the generator actually sent it
	end    int64
	win    int8
	read   bool
	failed bool
}

// recorder is one goroutine family's list of completed ops.
type recorder struct {
	mu   sync.Mutex
	recs []opRec
}

func (r *recorder) add(rec opRec) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// generator drives the workload's traffic over its connections: a closed
// loop of Conns x Depth callers that each wait for their reply, or an open
// loop that issues on a fixed schedule whatever the system does.
type generator struct {
	sp    spec
	seed  int64
	conns []kvConn
	led   *ledger
	spans []*spanBuf // per connection; client spans of the traced window

	base   time.Time
	window atomic.Int32
	stop   chan struct{}
	wg     sync.WaitGroup
	ops    sync.WaitGroup // open-loop ops in flight

	mu   sync.Mutex
	recs []*recorder
}

func newGenerator(sp spec, seed int64, conns []kvConn, led *ledger, tr *tracer) *generator {
	g := &generator{sp: sp, seed: seed, conns: conns, led: led, stop: make(chan struct{})}
	g.window.Store(winNone)
	for range conns {
		g.spans = append(g.spans, tr.buf())
	}
	return g
}

func (g *generator) recorder() *recorder {
	r := &recorder{}
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
	return r
}

// start launches the load; it runs until halt.
func (g *generator) start() {
	g.base = time.Now()
	for c := range g.conns {
		if g.sp.OpenRate > 0 {
			g.wg.Add(1)
			go g.openLoop(c)
			continue
		}
		for w := 0; w < g.sp.Depth; w++ {
			g.wg.Add(1)
			go g.closedLoop(c, w)
		}
	}
}

// halt stops issuing and waits for every operation in flight.
func (g *generator) halt() {
	close(g.stop)
	g.wg.Wait()
	g.ops.Wait()
}

func (g *generator) stopped() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

func (g *generator) rng(conn, worker int) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + int64(conn)*1009 + int64(worker)))
}

// closedLoop is one caller on connection c: it issues, waits for the reply,
// and issues again. It writes only its own share of c's keys and reads any
// key.
func (g *generator) closedLoop(c, w int) {
	defer g.wg.Done()
	rng := g.rng(c, w)
	rec := g.recorder()
	var own []int
	for i := w; i < keysPerConn; i += g.sp.Depth {
		own = append(own, c*keysPerConn+i)
	}
	for !g.stopped() {
		now := time.Now()
		if g.sp.ReadPct > 0 && rng.Intn(100) < g.sp.ReadPct {
			g.getl(c, rng.Intn(len(g.led.keys)), now, rec)
		} else {
			g.put(c, own[rng.Intn(len(own))], now, now, rec)
		}
	}
}

// openLoop issues connection c's PUTs on schedule: request i is due at
// start + i/rate and is sent then, or at once if the generator is late. It
// never waits for a reply, so a stall in the system piles requests up and
// their latency, timed from the due time, shows it.
func (g *generator) openLoop(c int) {
	defer g.wg.Done()
	rng := g.rng(c, 0)
	rec := g.recorder()
	perm := rng.Perm(keysPerConn)
	inflight := make([]atomic.Bool, keysPerConn)
	period := time.Second / time.Duration(g.sp.OpenRate)
	next := 0
	for i := 0; ; i++ {
		due := g.base.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-g.stop:
				return
			case <-time.After(d):
			}
		} else if g.stopped() {
			return
		}
		// The next key of the permutation with no write in flight: a key's
		// sequence numbers must reach the server in order.
		k := -1
		for tries := 0; tries < keysPerConn; tries++ {
			cand := perm[next%keysPerConn]
			next++
			if inflight[cand].CompareAndSwap(false, true) {
				k = cand
				break
			}
		}
		if k < 0 {
			// Every key has a write in flight, so the request cannot be
			// sent: it was due, so it is attempted, and it failed.
			now := time.Now()
			g.record(c, rec, opRec{failed: true}, spanPut, due, now, now)
			continue
		}
		g.ops.Add(1)
		go func(k int, due time.Time) {
			defer g.ops.Done()
			g.put(c, c*keysPerConn+k, due, time.Now(), rec)
			inflight[k].Store(false)
		}(k, due)
	}
}

func (g *generator) put(c, k int, due, issue time.Time, rec *recorder) {
	seq, val := g.led.next(k)
	err := g.conns[c].Put(g.led.keys[k], val)
	end := time.Now()
	switch {
	case err == nil:
		g.led.ack(k, seq)
	case !errors.Is(err, smr.ErrRejected):
		g.led.ambiguous(k, seq)
	}
	g.record(c, rec, opRec{failed: err != nil}, spanPut, due, issue, end)
}

func (g *generator) getl(c, k int, issue time.Time, rec *recorder) {
	floor := g.led.readFloor(k)
	val, err := g.conns[c].GetLinearizable(g.led.keys[k])
	end := time.Now()
	notFound := errors.Is(err, smr.ErrNotFound)
	if err == nil || notFound {
		g.led.checkRead(floor, val, !notFound)
	}
	g.record(c, rec, opRec{read: true, failed: err != nil && !notFound}, spanGetL, issue, issue, end)
}

// record files a completed op under the window it completed in.
func (g *generator) record(c int, rec *recorder, r opRec, name string, due, issue, end time.Time) {
	win := g.window.Load()
	if win == winNone {
		return
	}
	r.win = int8(win)
	r.due, r.issue, r.end = int64(due.Sub(g.base)), int64(issue.Sub(g.base)), int64(end.Sub(g.base))
	rec.add(r)
	if win == winTraced {
		g.spans[c].add(name, -1, due, end)
	}
}

// windowStats is what one measured window's records say.
type windowStats struct {
	attempted, failed int
	acked             int
	put, read, lag    sample // latencies of acked PUTs and GETLs; issue lateness of all ops
	recs              []opRec
	base              time.Time // what the records' times count from
}

// collect gathers window win's records. Call after halt.
func (g *generator) collect(win int8) windowStats {
	ws := windowStats{base: g.base}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, rec := range g.recs {
		for _, r := range rec.recs {
			if r.win != win {
				continue
			}
			ws.recs = append(ws.recs, r)
			ws.attempted++
			ws.lag = append(ws.lag, r.issue-r.due)
			switch {
			case r.failed:
				ws.failed++
			case r.read:
				ws.acked++
				ws.read = append(ws.read, r.end-r.due)
			default:
				ws.acked++
				ws.put = append(ws.put, r.end-r.due)
			}
		}
	}
	return ws
}
