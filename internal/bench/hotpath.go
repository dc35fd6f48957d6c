package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/wal"
)

// HotPathRow is one F4b configuration's measurements, JSON-ready so the
// report can be committed as a machine-readable perf baseline.
type HotPathRow struct {
	Transport   string  `json:"transport"` // mem | tcp
	Clients     int     `json:"clients"`   // concurrent proxies
	Ops         int     `json:"ops"`       // committed Puts
	OpsPerSec   float64 `json:"opsPerSec"`
	P50Micros   float64 `json:"p50Micros"` // per-Put latency percentiles
	P95Micros   float64 `json:"p95Micros"`
	AllocsPerOp float64 `json:"allocsPerOp"` // process-wide heap allocations / op
	FsyncsPerOp float64 `json:"fsyncsPerOp"` // cluster-wide WAL fsyncs / op
	Sends       uint64  `json:"sends"`       // fabric-wide messages delivered
	Drops       uint64  `json:"drops"`       // fabric-wide messages dropped
}

// HotPathReport is the machine-readable form of F4b (BENCH_F4b.json; the
// committed BENCH_F4.json is its 1f02299 ancestor).
type HotPathReport struct {
	ID           string       `json:"id"`
	Title        string       `json:"title"`
	N            int          `json:"n"`
	F            int          `json:"f"`
	E            int          `json:"e"`
	FsyncPolicy  string       `json:"fsyncPolicy"`
	OpsPerClient int          `json:"opsPerClient"`
	Rows         []HotPathRow `json:"rows"`
}

// HotPath regenerates F4b: hot-path throughput and latency of the durable
// (fsync-always), adaptively batched replicated KV store across client
// counts and transports. A batch of one is the 1-client row. (The committed
// BENCH_F4.json, measured at 1f02299, also holds `none`, `legacy` and
// `fixed-2ms` rows: an unbatched stack, and paths deleted since.)
func HotPath() *Result {
	const n, f, e = 5, 2, 2
	rep := &HotPathReport{
		ID:    "F4b",
		Title: fmt.Sprintf("durable hot path: ops/s, latency, allocs, fsyncs (n=%d, f=%d, e=%d, fsync=always)", n, f, e),
		N:     n, F: f, E: e,
		FsyncPolicy:  wal.SyncAlways.String(),
		OpsPerClient: 100,
	}
	res := &Result{
		ID:     "F4b",
		Title:  rep.Title,
		Header: []string{"transport", "clients", "ops", "ops/sec", "p50 µs", "p95 µs", "allocs/op", "fsyncs/op"},
		Report: rep,
	}

	type config struct {
		transport string
		clients   int
		ops       int
	}
	var grid []config
	for _, clients := range []int{1, 2, 4, 8} {
		grid = append(grid, config{"mem", clients, rep.OpsPerClient})
	}
	// TCP is the expensive fabric: a reduced grid keeps F4b's runtime sane.
	for _, clients := range []int{1, 8} {
		grid = append(grid, config{"tcp", clients, 30})
	}

	for _, c := range grid {
		row, err := hotPathRun(n, f, e, c.transport, c.clients, c.ops)
		if err != nil {
			res.AddRow(c.transport, c.clients, "—", "err: "+err.Error(), "—", "—", "—", "—")
			continue
		}
		rep.Rows = append(rep.Rows, row)
		res.AddRow(row.Transport, row.Clients, row.Ops,
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%.0f", row.P50Micros), fmt.Sprintf("%.0f", row.P95Micros),
			fmt.Sprintf("%.0f", row.AllocsPerOp), fmt.Sprintf("%.2f", row.FsyncsPerOp))
	}
	res.AddNote("Every row runs full durability with fsync `always`; fsyncs/op is the cluster-wide WAL sync count over committed Puts — below 1 means group commit amortized a disk flush across concurrent operations.")
	res.AddNote("allocs/op is process-wide (all five replicas plus clients), measured with runtime.MemStats deltas.")
	return res
}

// hotPathRun boots one durable cluster — the assembly cmd/kv ships, one
// group per process — on the requested fabric and hammers it, returning the
// measured row.
func hotPathRun(n, f, e int, fabric string, clients, opsPerClient int) (HotPathRow, error) {
	row := HotPathRow{Transport: fabric, Clients: clients}
	dir, err := os.MkdirTemp("", "bench-f4b-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	c, err := cluster.New(cluster.Options{
		N: n, F: f, E: e,
		TCP:           fabric == "tcp",
		Dir:           dir,
		SnapshotEvery: -1, // keep the run free of snapshot interference
	})
	if err != nil {
		return row, err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	syncsBefore := c.WalSyncs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// All clients drive one proposer (the classic SMR deployment),
	// in-process: that is what lets the batcher and the WAL group commit
	// see concurrent commands at a single replica.
	lat, elapsed, err := runClients(clients, func(cl int, own *Sample) error {
		kv := c.Runtime(0)
		for j := 0; j < opsPerClient; j++ {
			t0 := time.Now()
			if err := kv.Put(ctx, fmt.Sprintf("c%d-k%d", cl, j), "v"); err != nil {
				return err
			}
			own.Add(float64(time.Since(t0).Microseconds()))
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return row, err
	}

	st := c.Fabric().Stats()
	row.Sends = st.Sends
	row.Drops = st.Drops

	ops := clients * opsPerClient
	row.Ops = ops
	row.OpsPerSec = float64(ops) / elapsed.Seconds()
	row.P50Micros = lat.Percentile(50)
	row.P95Micros = lat.Percentile(95)
	row.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	row.FsyncsPerOp = float64(c.WalSyncs()-syncsBefore) / float64(ops)
	return row, nil
}
