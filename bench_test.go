package repro_test

// One testing.B benchmark per table and figure of DESIGN.md §4 — each
// regenerates the corresponding experiment through the same driver cmd/bench
// uses — plus micro-benchmarks of the protocol's hot paths.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/protocols"
	"repro/internal/quorum"
	"repro/internal/runner"
)

func BenchmarkT1Frontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Frontier(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkT2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Coverage(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkT3Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Recovery(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkT4LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.LowerBounds(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkT5Soak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.SoakTable(10); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkF1LatencyVsCrashes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.LatencyVsCrashes(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkF2Conflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.LatencyVsConflicts(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkF3WAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.WAN(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Ablation(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkFastPathRun measures one full E-faulty synchronous fast-path run
// (5 processes, proposal to decision) in the simulator.
func BenchmarkFastPathRun(b *testing.B) {
	sc := runner.Scenario{N: 5, F: 2, E: 1, Delta: 10}
	inputs := map[consensus.ProcessID]consensus.Value{2: consensus.IntValue(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := runner.EFaultySync(protocols.CoreObjectFactory, sc, runner.SyncRun{
			Inputs: inputs, Prefer: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !tr.TwoStepFor(2, sc.Delta) {
			b.Fatal("fast path failed")
		}
	}
}

// BenchmarkRecoveryCompute measures the 1B aggregation rule on a full
// quorum of reports.
func BenchmarkRecoveryCompute(b *testing.B) {
	f, e := 3, 3
	n := quorum.TaskMinProcesses(f, e)
	cfg := consensus.Config{ID: 0, N: n, F: f, E: e, Delta: 10}
	node := core.NewUnchecked(cfg, core.ModeTask, core.DefaultOptions(), consensus.FixedLeader(0))
	reports := make(map[consensus.ProcessID]core.OneB, n-f)
	for i := 0; i < n-f; i++ {
		reports[consensus.ProcessID(i)] = core.OneB{
			Ballot:   1,
			Val:      consensus.IntValue(int64(1 + i%2)),
			Proposer: consensus.ProcessID(n - 1),
			Decided:  consensus.None,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := node.ComputeRecovery(reports); v.IsNone() {
			b.Fatal("no value recovered")
		}
	}
}

// BenchmarkCodecRoundTrip measures wire encoding+decoding of a 1B message.
func BenchmarkCodecRoundTrip(b *testing.B) {
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	msg := &core.OneB{Ballot: 7, VBal: 3, Val: consensus.IntValue(42), Proposer: 2, Decided: consensus.None}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := codec.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskWitness measures one full Appendix-B task construction
// (below bound, with recovery continuation).
func BenchmarkTaskWitness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := lowerbound.TaskWitness(protocols.CoreTaskFactory, 5, 2, 2, 10)
		if err != nil {
			b.Fatal(err)
		}
		if !w.Violated {
			b.Fatal("expected violation below bound")
		}
	}
}
