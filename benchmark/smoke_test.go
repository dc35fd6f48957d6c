package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload runs start to finish at a 300 ms window — set-up, warm-up,
// both windows, the fault schedule, probes, read-back — and loses nothing.
// The window is too short for the numbers to mean anything.
func TestEveryWorkloadSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			traces := t.TempDir()
			rep, err := runChild(childConfig{
				Workload: sp.Name, Seed: 3, Window: 300 * time.Millisecond, Trace: traceBoth,
				Scratch: t.TempDir(), TraceDir: traces,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.EndToEnd["wrong_results"].Value != 0 {
				t.Errorf("wrong_results = %v", rep.EndToEnd["wrong_results"].Value)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			for _, name := range []string{"ops_s", "lat_p50_ms", "cpu_us_per_op", "rss_peak_mb", "setup_s"} {
				if rep.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.EndToEnd[name].Value)
				}
			}
			for _, name := range []string{"transport.sends_per_op", "wal.fsyncs_per_op", "smr.handles_per_op",
				"trace.overhead_share", "core.decide_us.n3", "wal.fsync_us", "session.wire_rtt_us"} {
				if _, ok := rep.PerLayer[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if sp.Crash {
				if rep.PerLayer["recovery.replay_ms"].Value <= 0 || rep.PerLayer["recovery.catchup_ms"].Value <= 0 || len(rep.Notes) != 3 {
					t.Errorf("no kill and restart on record: %v, notes %q", rep.PerLayer, rep.Notes)
				}
			}
			if sp.Leases != nil && rep.PerLayer["lease.hit_share"].Value < 0.9 {
				t.Errorf("lease.hit_share = %v, want reads served from the lease", rep.PerLayer["lease.hit_share"].Value)
			}
			if (sp.WAN == "") != (rep.Delay == "no injected delay (loopback)") {
				t.Errorf("delay note %q does not match the workload", rep.Delay)
			}
			if fi, err := os.Stat(filepath.Join(traces, "trace-"+sp.Name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}

// A workload that wants more connections than the machine has CPUs is
// refused: concurrency comes from pipeline depth, not connection count.
func TestRefusesMoreConnectionsThanCPUs(t *testing.T) {
	if err := checkConns(spec{Name: "wide", Conns: 3}, 2); err == nil {
		t.Error("3 connections accepted on 2 CPUs")
	}
	for _, sp := range specs {
		if err := checkConns(sp, 2); err != nil {
			t.Errorf("the 2-core runner must run every workload: %v", err)
		}
	}
}
