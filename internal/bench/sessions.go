package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/linear"
	"repro/internal/smr"
)

// SessionRow is one F7 configuration's measurements: aggregate client-side
// throughput through the real TCP wire for the session client at a given
// in-flight depth (depth 1 is the one-at-a-time wire).
type SessionRow struct {
	Clients   int     `json:"clients"` // concurrent client goroutines
	Depth     int     `json:"depth"`   // per-client in-flight window (1 = serial)
	Ops       int     `json:"ops"`     // committed Puts
	OpsPerSec float64 `json:"opsPerSec"`
	P50Micros float64 `json:"p50Micros"` // issue→completion latency percentiles
	P95Micros float64 `json:"p95Micros"`
}

// SessionLinearRun records F7's correctness leg: a large shared-session
// client population whose full history is checked for linearizability.
type SessionLinearRun struct {
	Clients  int  `json:"clients"`  // logical clients (goroutines)
	Sessions int  `json:"sessions"` // TCP connections they multiplex over
	Ops      int  `json:"ops"`      // recorded operations
	Ok       bool `json:"ok"`       // history linearizable
}

// SessionsReport is the machine-readable form of F7 (BENCH_F7.json).
type SessionsReport struct {
	ID           string           `json:"id"`
	Title        string           `json:"title"`
	N            int              `json:"n"`
	F            int              `json:"f"`
	E            int              `json:"e"`
	OpsPerClient int              `json:"opsPerClient"`
	Rows         []SessionRow     `json:"rows"`
	Linear       SessionLinearRun `json:"linear"`
}

// Sessions regenerates F7: aggregate throughput of the replicated KV store
// through its real TCP client wire, comparing one-at-a-time (depth 1)
// against pipelined session clients across client counts and depths — plus
// a 256-client run, multiplexed over a handful of shared connections, whose
// recorded history is checked for linearizability (out-of-order tagged
// completion must not be observable). depth overrides the window used for
// the deep rows (0 = the default 16, the acceptance floor's setting). (The
// committed BENCH_F7.json, measured at 1f02299, also holds `legacy` rows: a
// v1 client library deleted since.)
func Sessions(depth int) *Result {
	const n, f, e = 3, 1, 1
	if depth <= 0 {
		depth = 16
	}
	rep := &SessionsReport{
		ID:    "F7",
		Title: fmt.Sprintf("pipelined sessions: client-wire throughput vs in-flight depth (n=%d, f=%d, e=%d, TCP)", n, f, e),
		N:     n, F: f, E: e,
		OpsPerClient: 50,
	}
	res := &Result{
		ID:     "F7",
		Title:  rep.Title,
		Header: []string{"clients", "depth", "ops", "ops/sec", "p50 µs", "p95 µs"},
		Report: rep,
	}

	type config struct {
		clients int
		depth   int
	}
	grid := []config{
		{1, depth},
		{8, 1},
		{8, depth},
		{8, 2 * depth},
		{64, depth},
		{256, depth},
	}

	var serial8, deep8 float64
	for _, c := range grid {
		row, err := sessionRun(n, f, e, c.clients, c.depth, rep.OpsPerClient)
		if err != nil {
			res.AddRow(c.clients, c.depth, "—", "err: "+err.Error(), "—", "—")
			continue
		}
		rep.Rows = append(rep.Rows, row)
		res.AddRow(row.Clients, row.Depth, row.Ops,
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%.0f", row.P50Micros), fmt.Sprintf("%.0f", row.P95Micros))
		if c.clients == 8 {
			switch c.depth {
			case 1:
				serial8 = row.OpsPerSec
			case depth:
				deep8 = row.OpsPerSec
			}
		}
	}
	if serial8 > 0 && deep8 > 0 {
		res.AddNote("8-client speedup, depth %d vs depth 1: %.1fx (pipelined frames amortize the per-op wire round trip; acceptance floor 2x).", depth, deep8/serial8)
	}

	lin, err := sessionLinearRun(n, f, e)
	if err != nil {
		res.AddNote("linearizability leg failed to run: %v", err)
	} else {
		rep.Linear = lin
		res.AddNote("%d logical clients multiplexed over %d shared session connections (%d recorded ops, out-of-order completion): linearizable = %v.",
			lin.Clients, lin.Sessions, lin.Ops, lin.Ok)
	}
	res.AddNote("Every row goes through the real TCP client protocol (HELLO/OHAI negotiation, tagged frames); consensus runs on the in-memory fabric with adaptive batching so the client wire is the variable under test.")
	res.AddNote("depth is the per-client in-flight window: each client issues PutAsync up to depth outstanding futures; p50/p95 measure issue→completion, so deep windows trade per-op latency for aggregate throughput.")
	return res
}

// sessionCluster boots F7's cluster: the shipped assembly, non-durable, on
// the in-memory fabric with adaptive batching and a client-facing TCP
// server per process, so the client wire is the variable under test.
func sessionCluster(n, f, e int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Options{N: n, F: f, E: e, Servers: true})
}

// runClients is the load-driver skeleton the serving figures share: fn runs
// on clients goroutines, each handed its index and a latency sample of its
// own; the samples come back merged with the wall time and the first error.
func runClients(clients int, fn func(c int, lat *Sample) error) (Sample, time.Duration, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	lats := make([]Sample, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(c, &lats[c]); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	var all Sample
	for i := range lats {
		all.xs = append(all.xs, lats[i].xs...)
	}
	return all, elapsed, <-errCh
}

// putWindows is the session-client write load behind F7 and F8: client c
// dials addrs[c%len(addrs)] and pushes ops Puts on its own prefix-c<c>-k<j>
// keys through a sliding window of depth outstanding futures — the oldest
// is reaped when the window is full, so the issue→completion latencies it
// returns (µs) include the queueing the window buys throughput with. The
// elapsed time covers the dials.
func putWindows(addrs []string, clients, depth, ops int, prefix string) (Sample, time.Duration, error) {
	return runClients(clients, func(c int, lat *Sample) error {
		sc, err := smr.NewSessionClient([]string{addrs[c%len(addrs)]}, smr.SessionOptions{
			Timeout: 30 * time.Second,
			Depth:   depth,
		})
		if err != nil {
			return err
		}
		defer sc.Close()
		type inflight struct {
			fut *smr.Future
			t0  time.Time
		}
		window := make([]inflight, 0, depth)
		reap := func(n int) error {
			for _, w := range window[:n] {
				if err := w.fut.Err(); err != nil {
					return err
				}
				lat.Add(float64(time.Since(w.t0).Microseconds()))
			}
			window = window[n:]
			return nil
		}
		for j := 0; j < ops; j++ {
			window = append(window, inflight{sc.PutAsync(fmt.Sprintf("%s-c%d-k%d", prefix, c, j), "v"), time.Now()})
			if len(window) == depth {
				if err := reap(1); err != nil {
					return err
				}
			}
		}
		return reap(len(window))
	})
}

// sessionRun measures one F7 row: clients goroutines hammering the cluster
// through session clients, each with a depth-deep window.
func sessionRun(n, f, e int, clients, depth, opsPerClient int) (SessionRow, error) {
	row := SessionRow{Clients: clients, Depth: depth}
	c, err := sessionCluster(n, f, e)
	if err != nil {
		return row, err
	}
	defer c.Close()
	lat, elapsed, err := putWindows(c.Addrs(), clients, depth, opsPerClient, "t")
	if err != nil {
		return row, err
	}
	row.Ops = clients * opsPerClient
	row.OpsPerSec = float64(row.Ops) / elapsed.Seconds()
	row.P50Micros = lat.Percentile(50)
	row.P95Micros = lat.Percentile(95)
	return row, nil
}

// sessionLinearRun is F7's correctness leg: 256 logical clients multiplex
// over a small pool of shared session connections (many tags in flight per
// connection, replies completing out of order) and the recorded history
// must check linearizable.
func sessionLinearRun(n, f, e int) (SessionLinearRun, error) {
	const (
		clients      = 256
		sessions     = 16
		opsPerClient = 10
		keys         = 128
	)
	run := SessionLinearRun{Clients: clients, Sessions: sessions}
	c, err := sessionCluster(n, f, e)
	if err != nil {
		return run, err
	}
	defer c.Close()
	addrs := c.Addrs()

	pool := make([]*smr.SessionClient, sessions)
	for i := range pool {
		sc, err := smr.NewSessionClient([]string{addrs[i%len(addrs)]}, smr.SessionOptions{
			Timeout: 30 * time.Second,
			Depth:   64,
		})
		if err != nil {
			return run, err
		}
		defer sc.Close()
		pool[i] = sc
	}

	rec := linear.NewRecorder()
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		id := id
		sc := pool[id%sessions]
		rng := rand.New(rand.NewSource(int64(9000 + id)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPerClient; j++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				switch rng.Intn(10) {
				case 0, 1: // delete
					p := rec.Invoke(id, linear.KindDelete, key, "")
					if err := sc.Delete(key); err != nil {
						p.Ambiguous()
					} else {
						p.OK()
					}
				case 2, 3, 4: // linearizable read
					p := rec.Invoke(id, linear.KindGet, key, "")
					v, err := sc.GetLinearizable(key)
					switch {
					case err == nil:
						p.Observed(v, true)
					case errors.Is(err, smr.ErrNotFound):
						p.Observed("", false)
					default:
						p.Ambiguous()
					}
				default: // write
					val := fmt.Sprintf("c%d-%d", id, j)
					p := rec.Invoke(id, linear.KindPut, key, val)
					if err := sc.Put(key, val); err != nil {
						p.Ambiguous()
					} else {
						p.OK()
					}
				}
			}
		}()
	}
	wg.Wait()
	run.Ops = rec.Len()
	run.Ok = linear.CheckTimeout(rec.History(), 60*time.Second).Ok
	return run, nil
}
