package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/wal"
)

// DurableRecovery regenerates T3b: the durability subsystem's operational
// costs, complementing T3's protocol-level recovery correctness. For each
// fsync policy it measures the append-path latency, then simulates a crash
// (a torn write injected through the WAL failpoint), restarts, and reports
// how much the replay recovered and how long it took — the crash-restart
// column. A final column shows what a restart replays after a snapshot,
// journaled as a record, has truncated the log behind it.
func DurableRecovery() *Result {
	r := &Result{
		ID:    "T3b",
		Title: "durability: fsync-policy append latency and crash-restart recovery",
		Header: []string{
			"fsync", "appends", "append µs/op",
			"crash: recovered", "torn tail", "recovery ms",
			"after snapshot cut",
		},
	}
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		c, err := durableRecoveryCase(pol)
		if err != nil {
			r.AddRow(pol.String(), "—", "—", "—", "—", "—", fmt.Sprintf("error: %v", err))
			continue
		}
		r.AddRow(
			pol.String(), c.appends, fmt.Sprintf("%.1f", c.appendUS),
			fmt.Sprintf("%d/%d", c.recovered, c.appends), verdict(c.torn, true),
			fmt.Sprintf("%.2f", c.recoveryMS),
			fmt.Sprintf("%d recs in %d seg(s)", c.afterCut, c.cutSegments),
		)
	}
	r.AddNote("append µs/op includes the per-record fsync under `always` and a host-driven Sync every %d appends under `interval`; `never` defers everything to the OS.", syncEveryAppends)
	r.AddNote("the served stack runs only `always`: shard.New refuses the other two, which let a vote or an ack leave before its record is on disk. They are measured here as the cost that rule pays.")
	r.AddNote("crash: recovered counts records surviving an injected torn write (the record being written when the crash hit is cut mid-frame and must be truncated away on restart, hence n/n+1).")
	r.AddNote("after snapshot cut: a snapshot is journaled as a record, the WAL truncated behind it once it is durable, and what is left replayed — the steady-state restart path of a snapshotting replica, whose snapshots are WAL records.")
	return r
}

const (
	benchAppends     = 512
	benchPayloadLen  = 128
	syncEveryAppends = 32
)

type durableRecoveryResult struct {
	appends     int
	appendUS    float64
	recovered   int
	torn        bool
	recoveryMS  float64
	afterCut    int
	cutSegments int
}

func durableRecoveryCase(pol wal.SyncPolicy) (durableRecoveryResult, error) {
	var res durableRecoveryResult
	dir, err := os.MkdirTemp("", "bench-wal-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Phase 1: timed append workload under the policy, small segments so the
	// run spans several rotations.
	opts := wal.Options{Policy: pol, SegmentBytes: 16 << 10}
	w, _, err := wal.Open(dir, opts)
	if err != nil {
		return res, err
	}
	payload := bytes.Repeat([]byte{0xAB}, benchPayloadLen)
	start := time.Now()
	for i := 0; i < benchAppends; i++ {
		if _, err := w.Append(payload); err != nil {
			return res, err
		}
		if pol == wal.SyncInterval && (i+1)%syncEveryAppends == 0 {
			if err := w.Sync(); err != nil {
				return res, err
			}
		}
	}
	res.appendUS = float64(time.Since(start).Microseconds()) / benchAppends
	if err := w.Close(); err != nil {
		return res, err
	}

	// Phase 2: crash. Reopen with a failpoint sized to tear the second
	// append mid-frame, exactly as a power loss would.
	frame := int64(16 + benchPayloadLen)
	crashed, _, err := wal.Open(dir, wal.Options{Policy: pol, FailpointLimit: frame + frame/2})
	if err != nil {
		return res, err
	}
	extra := 0
	for {
		if _, err := crashed.Append(payload); err != nil {
			break
		}
		extra++
	}
	crashed.Close() // poisoned: closes the fd without masking the torn tail
	res.appends = benchAppends + extra

	// Phase 3: restart — the crash-restart column.
	t0 := time.Now()
	w2, info, err := wal.Open(dir, wal.Options{Policy: pol})
	if err != nil {
		return res, err
	}
	rep, err := w2.Replay(0, func(uint64, []byte) error { return nil })
	if err != nil {
		w2.Close()
		return res, err
	}
	res.recoveryMS = float64(time.Since(t0).Microseconds()) / 1000
	res.recovered = rep.Records
	res.torn = info.TornTail || rep.TornTail

	// Phase 4: journal a snapshot, truncate the log to it once it is durable
	// and replay what is left — a snapshotting replica's steady-state restart.
	cut, err := w2.AppendBuffered(payload)
	if err == nil {
		err = w2.Commit(cut)
	}
	if err == nil {
		_, err = w2.TruncateBefore(cut)
	}
	if err == nil {
		_, err = w2.Replay(0, func(uint64, []byte) error { res.afterCut++; return nil })
	}
	if err != nil {
		w2.Close()
		return res, err
	}
	res.cutSegments = w2.Stats().Segments
	return res, w2.Close()
}
