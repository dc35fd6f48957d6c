package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/linear"
	"repro/internal/smr"
	"repro/internal/transport"
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

// sessionCluster boots n replicas on the in-memory fabric with a
// client-facing TCP server each, returning the server addresses.
func sessionCluster(n, f, e int) (addrs []string, cleanup func(), err error) {
	mesh := transport.NewMesh(n)
	replicas := make([]*smr.Replica, 0, n)
	servers := make([]*smr.Server, 0, n)
	cleanup = func() {
		for _, s := range servers {
			s.Close()
		}
		for _, r := range replicas {
			r.Close()
		}
		mesh.Close()
	}
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		rep, err := smr.NewReplica(cfg, time.Millisecond)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		tr, err := mesh.Endpoint(cfg.ID, rep.Handle)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		rep.BindTransport(tr)
		rep.EnableAdaptiveBatching(0)
		rep.Start()
		replicas = append(replicas, rep)
		srv, err := smr.NewServer(rep, "127.0.0.1:0", 30*time.Second)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, cleanup, nil
}

// sessionRun measures one F7 row: clients goroutines hammering the cluster
// through session clients, each with a depth-deep window.
func sessionRun(n, f, e int, clients, depth, opsPerClient int) (SessionRow, error) {
	row := SessionRow{Clients: clients, Depth: depth}
	addrs, cleanup, err := sessionCluster(n, f, e)
	if err != nil {
		return row, err
	}
	defer cleanup()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	lats := make([][]float64, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := addrs[c%len(addrs)]
			sc, err := smr.NewSessionClient([]string{addr}, smr.SessionOptions{
				Timeout: 30 * time.Second,
				Depth:   depth,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer sc.Close()
			// A sliding window of depth outstanding futures: reap the
			// oldest when full, so issue→completion latency includes the
			// queueing the window buys throughput with.
			type inflight struct {
				fut *smr.Future
				t0  time.Time
			}
			window := make([]inflight, 0, depth)
			reap := func(w inflight) error {
				if err := w.fut.Err(); err != nil {
					return err
				}
				lats[c] = append(lats[c], float64(time.Since(w.t0).Microseconds()))
				return nil
			}
			for j := 0; j < opsPerClient; j++ {
				window = append(window, inflight{sc.PutAsync(fmt.Sprintf("c%d-k%d", c, j), "v"), time.Now()})
				if len(window) == depth {
					if err := reap(window[0]); err != nil {
						errCh <- err
						return
					}
					window = window[1:]
				}
			}
			for _, w := range window {
				if err := reap(w); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		return row, err
	}

	var lat Sample
	for _, ls := range lats {
		for _, x := range ls {
			lat.Add(x)
		}
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
	addrs, cleanup, err := sessionCluster(n, f, e)
	if err != nil {
		return run, err
	}
	defer cleanup()

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
