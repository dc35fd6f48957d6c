package chaos

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/linear"
	"repro/internal/transport"
	"repro/internal/wan"
)

// TestWANPartitionLinearizable is the geo chaos scenario: a durable
// 5-replica cluster deployed one replica per region (wan preset geo5x5,
// delays compressed 50× so they sit under the protocol's Δ), scripted
// clients in every region, and a region cut — the two western regions are
// partitioned from the other three mid-workload, then healed. The merged
// history must check linearizable (Wing & Gong via internal/linear) and the
// cluster must reconverge with the geo latency still in place.
//
// The run is seed-reproducible: client scripts derive from wanChaosSeed,
// the partition schedule is fixed, the geo delays are deterministic per
// link (wan.Topology.MeshFault), and probabilistic fault sampling (unused
// here, but installed) draws from per-link seeded streams.
func TestWANPartitionLinearizable(t *testing.T) {
	const (
		seed  = int64(20250809)
		scale = 0.02 // max RTT 275ms → one-way ≤ 2.75ms, under Δ = 10ms
	)
	topo, err := wan.Preset("geo5x5")
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 5 {
		t.Fatalf("geo5x5 has %d slots, want 5", topo.N())
	}
	o := Options{
		N: 5, F: 2, E: 2,
		Clients: 5, OpsPerClient: 30, Keys: 3,
		OpTimeout:       5 * time.Second,
		OpGap:           10 * time.Millisecond,
		ConvergeTimeout: 30 * time.Second,
		CheckTimeout:    30 * time.Second,
	}

	c, err := cluster.New(cluster.Options{
		N: o.N, F: o.F, E: o.E, Dir: t.TempDir(),
		Topology: topo, Scale: scale,
	})
	if err != nil {
		t.Fatalf("boot cluster: %v", err)
	}
	defer c.Close()
	flt := newFaults(seed ^ saltFaults)
	c.Fabric().SetFault(flt.verdict)

	scripts := Scripts(seed, o)
	rec := linear.NewRecorder()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One client per region: proxy i lives in topo region i.
			runClient(ctx, c, rec, i, i%o.N, scripts[i], o.OpTimeout, o.OpGap)
		}(i)
	}

	// The nemesis: let the workload spread across regions, cut the two
	// western regions (including the initial leader) off from the eastern
	// majority, hold, heal. Geo latency survives the heal — distance is
	// not a fault.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(150 * time.Millisecond)
		flt.partition([]int{0, 1}, []int{2, 3, 4})
		time.Sleep(500 * time.Millisecond)
		flt.heal()
	}()
	wg.Wait()

	if err := c.WaitConverged(keyUniverse(o.Keys), o.ConvergeTimeout); err != nil {
		t.Fatalf("post-heal reconvergence (seed=%d): %v", seed, err)
	}

	h := rec.History()
	if len(h) == 0 {
		t.Fatal("no operations recorded")
	}
	ambiguous := 0
	for _, op := range h {
		if op.Outcome == linear.OutcomeAmbiguous {
			ambiguous++
		}
	}
	res := linear.CheckTimeout(h, o.CheckTimeout)
	if res.TimedOut {
		t.Fatalf("checker timed out (seed=%d)", seed)
	}
	if !res.Ok {
		t.Fatalf("history not linearizable at key %q (seed=%d)", res.Key, seed)
	}
	t.Logf("seed=%d ops=%d ambiguous=%d faultDrops=%d",
		seed, len(h), ambiguous, c.Fabric().Stats().DropsByCause[transport.DropFault])
}

// TestFaultStreamsPerLink pins the per-link sampling contract: the same
// seed replays the identical draw sequence on a link, distinct links get
// unrelated streams, and interleaving sends on other links does not
// perturb a link's stream.
func TestFaultStreamsPerLink(t *testing.T) {
	sample := func(f *faults, from, to int, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = f.verdict(pid(from), pid(to)).Drop
		}
		return out
	}
	f1 := newFaults(7)
	f1.setLoss(0.5)
	a := sample(f1, 0, 1, 64)

	// Same seed, but interleave heavy traffic on other links between each
	// 0→1 send: the 0→1 stream must be unchanged.
	f2 := newFaults(7)
	f2.setLoss(0.5)
	b := make([]bool, 64)
	for i := range b {
		for j := 0; j < 5; j++ {
			f2.verdict(pid(1), pid(2))
			f2.verdict(pid(2), pid(0))
		}
		b[i] = f2.verdict(pid(0), pid(1)).Drop
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link 0→1 stream perturbed by other links at send %d", i)
		}
	}

	// Different seeds differ; different links differ.
	f3 := newFaults(8)
	f3.setLoss(0.5)
	c := sample(f3, 0, 1, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
	f4 := newFaults(7)
	f4.setLoss(0.5)
	d := sample(f4, 1, 0, 64)
	same = 0
	for i := range a {
		if a[i] == d[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("links 0→1 and 1→0 share a stream")
	}
}
