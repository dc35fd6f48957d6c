package bench

import (
	"fmt"
	"os"

	"repro/internal/cluster"
)

// GroupsRow is one F8 configuration: aggregate throughput of a 3-process
// cluster hosting the given number of consensus groups per process, with
// the offered load scaled to the group count (scale-out framing: each
// group adds both capacity and clients).
type GroupsRow struct {
	Groups    int     `json:"groups"`
	Clients   int     `json:"clients"` // concurrent session clients
	Ops       int     `json:"ops"`     // committed Puts
	OpsPerSec float64 `json:"opsPerSec"`
	// ClusterFsyncsPerOp sums each process's WAL fsync delta and divides
	// by committed ops: the shared group-commit stream's coalescing
	// across groups (< 1 means one fdatasync covered several acked writes
	// cluster-wide, at fsync=always).
	ClusterFsyncsPerOp float64 `json:"clusterFsyncsPerOp"`
	// SpeedupVs1 is OpsPerSec relative to the 1-group row.
	SpeedupVs1 float64 `json:"speedupVs1"`
}

// GroupsReport is the machine-readable form of F8 (BENCH_F8.json).
type GroupsReport struct {
	ID              string      `json:"id"`
	Title           string      `json:"title"`
	N               int         `json:"n"`
	F               int         `json:"f"`
	E               int         `json:"e"`
	Depth           int         `json:"depth"`
	ClientsPerGroup int         `json:"clientsPerGroup"`
	OpsPerClient    int         `json:"opsPerClient"`
	Rows            []GroupsRow `json:"rows"`
}

// GroupScaling regenerates F8: aggregate throughput of the sharded
// multi-group runtime versus group count. Every row boots a real durable
// 3-process cluster (fsync=always, one shared WAL and one fsync scheduler
// per process), fronts it with the TCP client servers, and sprays
// hash-routed keys from pipelined session clients — clientsPerGroup
// clients per hosted group, so the load grows with the capacity under
// test. The second metric is cluster fsyncs per committed op: with N
// groups sharing one group-commit stream the fsyncs of independent groups
// coalesce, which is the reason to multiplex groups into one process
// instead of running N processes.
func GroupScaling() *Result {
	const n, f, e = 3, 1, 1
	rep := &GroupsReport{
		ID:    "F8",
		Title: fmt.Sprintf("multi-group scale-out: aggregate throughput and fsync coalescing vs groups per process (n=%d, f=%d, e=%d, TCP, fsync=always)", n, f, e),
		N:     n, F: f, E: e,
		Depth:           16,
		ClientsPerGroup: 4,
		OpsPerClient:    150,
	}
	res := &Result{
		ID:     "F8",
		Title:  rep.Title,
		Header: []string{"groups", "clients", "ops", "ops/sec", "cluster fsyncs/op", "speedup vs 1"},
		Report: rep,
	}

	var base float64
	for _, groups := range []int{1, 2, 4, 8, 16} {
		row, err := groupsRun(n, f, e, groups, rep.ClientsPerGroup*groups, rep.Depth, rep.OpsPerClient)
		if err != nil {
			res.AddRow(groups, "—", "—", "err: "+err.Error(), "—", "—")
			continue
		}
		if groups == 1 {
			base = row.OpsPerSec
		}
		if base > 0 {
			row.SpeedupVs1 = row.OpsPerSec / base
		}
		rep.Rows = append(rep.Rows, row)
		res.AddRow(row.Groups, row.Clients, row.Ops,
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%.3f", row.ClusterFsyncsPerOp),
			fmt.Sprintf("%.2fx", row.SpeedupVs1))
	}

	res.AddNote("Each row is a fresh durable 3-process cluster: every process hosts `groups` consensus groups over one transport, one WAL, and one fsync scheduler; %d session clients per group (depth %d) push hash-routed Puts through the real TCP wire.", rep.ClientsPerGroup, rep.Depth)
	res.AddNote("cluster fsyncs/op = Σ over processes of the WAL fsync-count delta, divided by committed ops. Groups share one group-commit stream, so independent groups' fsyncs coalesce — the per-op fsync cost falls as groups (and load) grow, while N separate processes would pay it N times.")
	res.AddNote("speedup is aggregate ops/sec vs the 1-group row under proportionally scaled load; each group is a full replica (own Ω, slot space, snapshots), so added groups contend only on the shared transport/WAL/scheduler — and on the host's cores. On a multi-core host the 1-group row is slot-pipeline-bound and groups scale throughput; on a single-core runner one warmed group already saturates the CPU, the curve is flat at the compute ceiling, and the sharding payoff is the falling fsyncs/op column (16 groups in one process keep one fsync stream; 16 single-group processes would pay ~16x the fsyncs).")
	return res
}

// groupsRun measures one F8 row on a fresh cluster: n sharded processes
// (groups each) on the in-memory fabric, durable at fsync=always, adaptive
// batching, a client-facing TCP server per process.
func groupsRun(n, f, e, groups, clients, depth, opsPerClient int) (GroupsRow, error) {
	row := GroupsRow{Groups: groups, Clients: clients}
	dir, err := os.MkdirTemp("", "bench-f8-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	c, err := cluster.New(cluster.Options{
		N: n, F: f, E: e, Groups: groups,
		Dir: dir, Servers: true,
	})
	if err != nil {
		return row, err
	}
	defer c.Close()

	// One pass to warm the adaptive batchers and the Ω fast path, then the
	// timed pass (fsync counting starts with the clock). Distinct keys per
	// client hash-route across all groups.
	if _, _, err := putWindows(c.Addrs(), clients, depth, opsPerClient/4, "w"); err != nil {
		return row, err
	}
	syncs0 := c.WalSyncs()
	_, elapsed, err := putWindows(c.Addrs(), clients, depth, opsPerClient, "t")
	if err != nil {
		return row, err
	}

	row.Ops = clients * opsPerClient
	row.OpsPerSec = float64(row.Ops) / elapsed.Seconds()
	row.ClusterFsyncsPerOp = float64(c.WalSyncs()-syncs0) / float64(row.Ops)
	return row, nil
}
