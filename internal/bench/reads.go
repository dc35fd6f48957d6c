package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/smr"
)

// ReadsRow is one F9 configuration: a read-mixed workload against a fresh
// durable 3-process cluster, with linearizable reads served by one of the
// three read paths under test.
type ReadsRow struct {
	Groups  int    `json:"groups"`
	Mode    string `json:"mode"`    // noop | coalesce | lease
	ReadPct int    `json:"readPct"` // GETL share of the mixed phase
	Ops     int    `json:"ops"`     // mixed-phase operations (reads+writes)
	Reads   int    `json:"reads"`   // GETLs among them
	// Mixed-phase aggregate throughput and GETL latency percentiles.
	OpsPerSec float64 `json:"opsPerSec"`
	GetlP50Ms float64 `json:"getlP50Ms"`
	GetlP99Ms float64 `json:"getlP99Ms"`
	// FsyncsPerRead is measured over a separate pure-read phase: cluster
	// fsync delta per GETL. The lease path must not touch the WAL at all
	// (the row errors if it does); the barrier paths pay only no-op vote
	// records, which group-commit across readers.
	FsyncsPerRead float64 `json:"fsyncsPerRead"`
	// SpeedupVsNoop is mixed-phase OpsPerSec against the per-read-no-op
	// row with the same groups and read share.
	SpeedupVsNoop float64 `json:"speedupVsNoop"`
}

// ReadsSpeedup is the F9 headline: lease-path gain at a given read share.
type ReadsSpeedup struct {
	Groups  int `json:"groups"`
	ReadPct int `json:"readPct"`
	// LeaseVsCoalesce compares the lease rows to leases-off with read
	// coalescing (the default fallback); LeaseVsNoop to the legacy
	// round-per-read baseline.
	LeaseVsCoalesce float64 `json:"leaseVsCoalesce"`
	LeaseVsNoop     float64 `json:"leaseVsNoop"`
}

// ReadsReport is the machine-readable form of F9 (BENCH_F9.json).
type ReadsReport struct {
	ID           string         `json:"id"`
	Title        string         `json:"title"`
	N            int            `json:"n"`
	F            int            `json:"f"`
	E            int            `json:"e"`
	Clients      int            `json:"clients"`
	OpsPerClient int            `json:"opsPerClient"`
	Rows         []ReadsRow     `json:"rows"`
	Speedups     []ReadsSpeedup `json:"speedups"`
}

// ReadMix regenerates F9: GETL latency and mixed throughput across read
// ratios for the three linearizable-read paths — one no-op round per read
// (legacy), coalesced read-index batching (default with leases off), and
// lease-based local reads — at 1 and 4 groups per process. Every row boots
// a real durable 3-process TCP cluster (fsync=always).
func ReadMix() *Result {
	const n, f, e = 3, 1, 1
	rep := &ReadsReport{
		ID:    "F9",
		Title: fmt.Sprintf("read paths: GETL latency and mixed throughput vs read ratio — per-read no-op vs coalesced barrier vs lease (n=%d, f=%d, e=%d, TCP, fsync=always)", n, f, e),
		N:     n, F: f, E: e,
		Clients:      8,
		OpsPerClient: 150,
	}
	res := &Result{
		ID:     "F9",
		Title:  rep.Title,
		Header: []string{"groups", "mode", "read%", "ops", "ops/sec", "GETL p50 (ms)", "GETL p99 (ms)", "fsyncs/read (pure)", "speedup vs noop"},
		Report: rep,
	}

	baseline := map[string]float64{} // "groups/readPct" -> noop ops/sec
	key := func(groups, pct int) string { return fmt.Sprintf("%d/%d", groups, pct) }
	for _, groups := range []int{1, 4} {
		for _, mode := range []string{"noop", "coalesce", "lease"} {
			for _, pct := range []int{50, 90, 99} {
				row, err := readsRun(n, f, e, groups, mode, pct, rep.Clients, rep.OpsPerClient)
				if err != nil {
					res.AddRow(groups, mode, pct, "—", "err: "+err.Error(), "—", "—", "—", "—")
					continue
				}
				if mode == "noop" {
					baseline[key(groups, pct)] = row.OpsPerSec
				}
				if base := baseline[key(groups, pct)]; base > 0 {
					row.SpeedupVsNoop = row.OpsPerSec / base
				}
				rep.Rows = append(rep.Rows, row)
				res.AddRow(row.Groups, row.Mode, row.ReadPct, row.Ops,
					fmt.Sprintf("%.0f", row.OpsPerSec),
					fmt.Sprintf("%.2f", row.GetlP50Ms),
					fmt.Sprintf("%.2f", row.GetlP99Ms),
					fmt.Sprintf("%.3f", row.FsyncsPerRead),
					fmt.Sprintf("%.2fx", row.SpeedupVsNoop))
			}
		}
	}

	for _, groups := range []int{1, 4} {
		sp := ReadsSpeedup{Groups: groups, ReadPct: 90}
		var lease, coalesce, noop float64
		for _, row := range rep.Rows {
			if row.Groups != groups || row.ReadPct != 90 {
				continue
			}
			switch row.Mode {
			case "lease":
				lease = row.OpsPerSec
			case "coalesce":
				coalesce = row.OpsPerSec
			case "noop":
				noop = row.OpsPerSec
			}
		}
		if lease > 0 && coalesce > 0 {
			sp.LeaseVsCoalesce = lease / coalesce
		}
		if lease > 0 && noop > 0 {
			sp.LeaseVsNoop = lease / noop
		}
		rep.Speedups = append(rep.Speedups, sp)
		res.AddNote("At 90%% reads, %d group(s): lease %.2fx vs coalesced barrier, %.2fx vs per-read no-op.",
			groups, sp.LeaseVsCoalesce, sp.LeaseVsNoop)
	}

	res.AddNote("Each row is a fresh durable 3-process cluster; %d session clients run a %d%%/%d%%-style read/write mix of synchronous GETLs and Puts over 32 shared hash-routed keys. `noop` pins one consensus no-op round per GETL (SetPerReadNoop), `coalesce` lets concurrent GETLs share rounds through the read gate, `lease` adds auto-granted leader leases so the holder answers from local applied state.", rep.Clients, 90, 10)
	res.AddNote("fsyncs/read comes from a pure-GETL phase after the mix: cluster WAL fsync delta per read. Lease reads must measure 0.000 (the row fails otherwise) — that is the tentpole claim, a linearizable read with no network round and no WAL touch. Barrier reads pay no-op vote records only (the decide record is skipped for read-only no-ops), group-committed across concurrent readers.")
	res.AddNote("In lease mode every client follows the lease-held redirect to the holder, so one process serves all traffic: the win is round-trip elimination, not load spreading. Read-heavy mixes gain the most; write-heavy mixes still pay consensus per Put.")
	return res
}

// readsRun measures one F9 row on a fresh cluster: n sharded processes,
// durable at fsync=always, leases enabled when mode is "lease", per-read
// no-ops forced when mode is "noop".
func readsRun(n, f, e, groups int, mode string, readPct, clients, opsPerClient int) (ReadsRow, error) {
	row := ReadsRow{Groups: groups, Mode: mode, ReadPct: readPct}
	dir, err := os.MkdirTemp("", "bench-f9-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	var leases *smr.LeaseOptions
	if mode == "lease" {
		leases = &smr.LeaseOptions{
			Duration:  2 * time.Second,
			Epsilon:   50 * time.Millisecond,
			AutoGrant: true,
		}
	}
	cl, err := cluster.New(cluster.Options{
		N: n, F: f, E: e, Groups: groups, Leases: leases,
		Dir: dir, Servers: true,
	})
	if err != nil {
		return row, err
	}
	defer cl.Close()
	addrs := cl.Addrs()
	if mode == "noop" {
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				cl.Runtime(i).Group(g).SetPerReadNoop(true)
			}
		}
	}

	const keySpace = 32
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("f9-k%d", i)
	}

	newClient := func(c int) (*smr.SessionClient, error) {
		if mode == "lease" {
			// Everyone follows the lease-held redirect to the holder.
			return smr.NewSessionClient(addrs, smr.SessionOptions{
				Timeout: 30 * time.Second, Depth: 8, PreferLeader: true,
			})
		}
		return smr.NewSessionClient([]string{addrs[c%len(addrs)]}, smr.SessionOptions{
			Timeout: 30 * time.Second, Depth: 8,
		})
	}

	if mode == "lease" {
		// Wait for the auto-grant timer to take every group's lease, so
		// the measured phase runs against the steady state (holder valid,
		// renewed ahead of expiry) rather than the bootstrap.
		if err := cl.WaitLeases(15 * time.Second); err != nil {
			return row, err
		}
	}

	// Seed the key space (and warm the batchers / redirect stickiness).
	seed, err := newClient(0)
	if err != nil {
		return row, err
	}
	for _, k := range keys {
		if err := seed.Put(k, "v0"); err != nil {
			seed.Close()
			return row, fmt.Errorf("seed %s: %w", k, err)
		}
	}
	seed.Close()

	// mixed runs the read/write mix and returns per-GETL latencies (ms).
	mixed := func(ops int, pct int) (Sample, time.Duration, error) {
		return runClients(clients, func(c int, lat *Sample) error {
			sc, err := newClient(c)
			if err != nil {
				return err
			}
			defer sc.Close()
			rng := rand.New(rand.NewSource(int64(9000 + c)))
			for j := 0; j < ops; j++ {
				k := keys[rng.Intn(keySpace)]
				if rng.Intn(100) < pct {
					t0 := time.Now()
					if _, err := sc.GetLinearizable(k); err != nil {
						return fmt.Errorf("getl: %w", err)
					}
					lat.Add(float64(time.Since(t0)) / float64(time.Millisecond))
				} else if err := sc.Put(k, fmt.Sprintf("v%d-%d", c, j)); err != nil {
					return fmt.Errorf("put: %w", err)
				}
			}
			return nil
		})
	}

	if _, _, err := mixed(opsPerClient/4, readPct); err != nil { // warm pass
		return row, err
	}
	lats, elapsed, err := mixed(opsPerClient, readPct)
	if err != nil {
		return row, err
	}

	row.Ops = clients * opsPerClient
	row.Reads = lats.N()
	row.OpsPerSec = float64(row.Ops) / elapsed.Seconds()
	row.GetlP50Ms = lats.Percentile(50)
	row.GetlP99Ms = lats.Percentile(99)

	// Pure-read phase: fsyncs per GETL with no writes in flight. The lease
	// path's tentpole claim is exactly zero here.
	const pureReads = 50
	// The mix's last writes are acknowledged at their proxy while the
	// other processes still journal the decisions: let those fsyncs land
	// first, or they are counted against the reads.
	syncs0 := cl.WalSyncs()
	for settled := 0; settled < 3; {
		time.Sleep(5 * time.Millisecond)
		if now := cl.WalSyncs(); now == syncs0 {
			settled++
		} else {
			syncs0, settled = now, 0
		}
	}
	if _, _, err := mixed(pureReads, 100); err != nil {
		return row, err
	}
	row.FsyncsPerRead = float64(cl.WalSyncs()-syncs0) / float64(clients*pureReads)
	if mode == "lease" && row.FsyncsPerRead != 0 {
		return row, fmt.Errorf("lease reads performed %.3f fsyncs/read, want exactly 0", row.FsyncsPerRead)
	}
	return row, nil
}
