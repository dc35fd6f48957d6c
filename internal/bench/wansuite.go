package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/epaxos"
	"repro/internal/fastpaxos"
	"repro/internal/protocols"
	"repro/internal/quorum"
	"repro/internal/wan"
)

// F10 — the WAN scenario suite. Where F3 computes geo latency analytically
// on the simulator, F10 measures it end-to-end: one real protocol instance
// per process, each on a driver (wandriver.go), over a real fabric (TCP
// with a per-peer one-way delay shim, or Mesh with a deterministic delay
// injector for the CI short mode), with durability on (an fsync per
// protocol step) when requested. Each cell of the sweep deploys a protocol
// on the first n slots of a wan.Topology preset and, for every distinct
// region, measures propose→decide latency at a proxy in that region plus
// the slow-path rate via
// consensus.FastPathReporter. The per-region tables are the paper's C5
// claim made empirical: the task/object protocols assemble their smaller
// fast quorums region-hops earlier than Fast Paxos on spread placements.

// WANEPaxos names the EPaxos baseline in the F10 sweep. It is not in the
// protocols registry (instances are owner-specific), so the suite wires it
// through protocols.EPaxosFactory with the proxy as owner.
const WANEPaxos = "epaxos"

// WANSweep is one (f, e) resilience point of the F10 sweep.
type WANSweep struct {
	F int `json:"f"`
	E int `json:"e"`
}

// WANSuiteOptions parameterizes the F10 suite.
type WANSuiteOptions struct {
	// Topologies are wan.Preset names.
	Topologies []string
	// Sweeps are the (f, e) points. EPaxos substitutes its own conflict
	// threshold e = ⌈(f+1)⁄2⌉ (the protocol fixes it; the row records it).
	Sweeps []WANSweep
	// Protocols are protocol names (registry names plus WANEPaxos).
	Protocols []string
	// Samples per (cell, proxy region), after one discarded warm-up.
	Samples int
	// Scale multiplies every one-way delay (1.0 = real milliseconds).
	Scale float64
	// UseTCP selects the real TCP fabric with the writer-side delay shim;
	// false runs on Mesh with the deterministic delay injector.
	UseTCP bool
	// Fsync installs a durability hook: every protocol step appends a
	// record to a per-process log and fsyncs before any send.
	Fsync bool
}

// DefaultWANSuiteOptions is the full F10 sweep: real TCP, fsync on, real
// geo milliseconds, both sweep points on a spread and a co-located layout.
func DefaultWANSuiteOptions() WANSuiteOptions {
	return WANSuiteOptions{
		Topologies: []string{"spread7", "geo5x7"},
		Sweeps:     []WANSweep{{F: 1, E: 1}, {F: 2, E: 2}},
		Protocols: []string{
			protocols.CoreTask, protocols.CoreObject,
			protocols.FastPaxos, protocols.FastPaxosFlex, WANEPaxos,
		},
		Samples: 8,
		Scale:   1.0,
		UseTCP:  true,
		Fsync:   true,
	}
}

// ShortWANSuiteOptions is the CI-sized sweep (make bench-wan-short): Mesh
// fabric, two sweep cells, delays compressed 20×, no fsync. Five samples
// per region: the medians the C5 ordering check compares are ≈ 4 ms vs
// 9 ms at this scale, and must survive samples stalled by a busy host.
func ShortWANSuiteOptions() WANSuiteOptions {
	return WANSuiteOptions{
		Topologies: []string{"spread7"},
		Sweeps:     []WANSweep{{F: 2, E: 2}},
		Protocols:  []string{protocols.CoreObject, protocols.FastPaxos},
		Samples:    5,
		Scale:      0.05,
		UseTCP:     false,
		Fsync:      false,
	}
}

// WANRegionStat is the measured latency profile for one proxy region.
type WANRegionStat struct {
	Region  string `json:"region"`
	Samples int    `json:"samples"`
	// FloorMs is the analytical floor: the RTT to the fast quorum's
	// farthest member from this proxy (wan.Topology.QuorumRTT), unscaled
	// by Scale so it is comparable across runs.
	FloorMs int     `json:"floorMs"`
	P50Ms   float64 `json:"p50Ms"`
	MaxMs   float64 `json:"maxMs"`
	// SlowPathRate is the fraction of samples that did NOT decide on the
	// protocol's fast path (consensus.FastPathReporter at the proxy).
	SlowPathRate float64 `json:"slowPathRate"`
}

// WANSuiteRow is one cell of the sweep.
type WANSuiteRow struct {
	Topology  string          `json:"topology"`
	Protocol  string          `json:"protocol"`
	N         int             `json:"n"`
	F         int             `json:"f"`
	E         int             `json:"e"`
	Flex      bool            `json:"flex"`
	FastQ     int             `json:"fastQuorum"`
	RecoveryQ int             `json:"recoveryQuorum"`
	Regions   []WANRegionStat `json:"regions,omitempty"`
	Skip      string          `json:"skip,omitempty"`
	Err       string          `json:"err,omitempty"`
}

// wanValueSeq makes proposal values globally unique across cells and
// samples, so a stale decide from a previous sample can never be mistaken
// for the current instance's value.
var wanValueSeq atomic.Int64

// WANSuite runs the sweep; the typed rows ride on Result.Typed.
func WANSuite(opts WANSuiteOptions) *Result {
	fabric := "mesh"
	if opts.UseTCP {
		fabric = "tcp"
	}

	type cellSpec struct {
		topoName string
		proto    string
		sweep    WANSweep
	}
	var cells []cellSpec
	for _, topoName := range opts.Topologies {
		for _, sweep := range opts.Sweeps {
			for _, proto := range opts.Protocols {
				cells = append(cells, cellSpec{topoName, proto, sweep})
			}
		}
	}

	rows := make([]WANSuiteRow, len(cells))
	// Cells are independent clusters on loopback; a small worker pool
	// bounds CPU contention so sleeps (the injected delays) stay the
	// dominant term of every measured latency.
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cellSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i] = runWANCell(c.topoName, c.proto, c.sweep, opts)
		}(i, c)
	}
	wg.Wait()

	res := &Result{
		ID: "F10",
		Title: fmt.Sprintf("WAN suite: measured commit latency at the proxy, ms (%s fabric, scale %g, fsync %v)",
			fabric, opts.Scale, opts.Fsync),
		Header: []string{"topology", "protocol", "n", "f", "e", "fastQ", "region",
			"floor ms", "p50 ms", "max ms", "slow-path"},
		Params: map[string]any{"transport": fabric, "scale": opts.Scale, "samples": opts.Samples, "fsync": opts.Fsync},
		Typed:  rows,
	}
	for _, row := range rows {
		if row.Skip != "" {
			res.AddRow(row.Topology, row.Protocol, row.N, row.F, row.E, "—", "—", "—", "—", "—", row.Skip)
			continue
		}
		if row.Err != "" {
			res.AddRow(row.Topology, row.Protocol, row.N, row.F, row.E, row.FastQ, "—", "—", "—", "—", "error: "+row.Err)
			continue
		}
		for _, reg := range row.Regions {
			res.AddRow(row.Topology, row.Protocol, row.N, row.F, row.E, row.FastQ, reg.Region,
				reg.FloorMs, fmt.Sprintf("%.1f", reg.P50Ms), fmt.Sprintf("%.1f", reg.MaxMs),
				fmt.Sprintf("%.0f%%", reg.SlowPathRate*100))
		}
	}
	res.AddNote("Measured end-to-end, one protocol instance per process: propose at a proxy in each distinct region, wait for its decision. floor ms = analytical RTT to the fast quorum's farthest member (unscaled); measured columns include the Scale factor, codec, loopback, and (when on) an fsync per protocol step.")
	res.AddNote("fastpaxos-flex runs the bare-majority fast quorum (quorum.SmallestFastFlex): lower latency than classical Fast Paxos at the same n, paid for with an n-all-but-(n−fast) recovery quorum.")
	return res
}

// runWANCell measures one (topology, protocol, sweep) cell.
func runWANCell(topoName, proto string, sweep WANSweep, opts WANSuiteOptions) WANSuiteRow {
	row := WANSuiteRow{Topology: topoName, Protocol: proto, F: sweep.F, E: sweep.E}
	topo, err := wan.Preset(topoName)
	if err != nil {
		row.Err = err.Error()
		return row
	}

	// Resolve the cell's deployment size and quorum shape.
	n, e := 0, sweep.E
	switch proto {
	case WANEPaxos:
		n = quorum.PlainMinProcesses(sweep.F)
		e = quorum.EPaxosFastThreshold(sweep.F)
		row.FastQ = quorum.EPaxosFastQuorum(sweep.F)
		row.RecoveryQ = n - sweep.F
	case protocols.FastPaxosFlex:
		n = quorum.LamportMinProcesses(sweep.F, sweep.E)
		fl, ferr := quorum.SmallestFastFlex(n, sweep.F, sweep.E)
		if ferr != nil {
			row.N = n
			row.Skip = "no sound flex quorum: " + ferr.Error()
			return row
		}
		row.Flex = true
		row.FastQ = fl.Fast
		row.RecoveryQ = fl.Recovery
	default:
		n, err = protocols.MinProcesses(proto, sweep.F, sweep.E)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		row.FastQ = n - e
		row.RecoveryQ = n - sweep.F
	}
	row.N, row.E = n, e
	if n > topo.N() {
		row.Skip = fmt.Sprintf("needs %d slots, topology has %d", n, topo.N())
		return row
	}
	prefix, err := topo.Prefix(n)
	if err != nil {
		row.Err = err.Error()
		return row
	}

	tick := time.Millisecond
	delta := prefix.Delta(opts.Scale)
	drain := prefix.MaxOneWayDelay(opts.Scale) + 20*time.Millisecond

	fab, err := newWANFabric(prefix, n, opts)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	defer fab.close()

	seen := map[string]bool{}
	for slot := 0; slot < n; slot++ {
		region := prefix.Region(slot)
		if seen[region] {
			continue
		}
		seen[region] = true
		stat, err := runWANProxy(prefix, fab, proto, n, sweep.F, e, delta, tick, drain,
			consensus.ProcessID(slot), opts)
		if err != nil {
			row.Err = fmt.Sprintf("proxy %s: %v", region, err)
			return row
		}
		stat.Region = region
		stat.FloorMs = int(prefix.QuorumRTT(slot, row.FastQ))
		row.Regions = append(row.Regions, stat)
	}
	return row
}

// runWANProxy measures opts.Samples one-shot instances (plus a discarded
// warm-up) with the proxy at the given slot. Each sample boots fresh drivers
// on the cell's shared fabric; between samples the fabric drains for the
// max one-way delay so no stale frame leaks into the next instance.
func runWANProxy(prefix wan.Topology, fab *wanFabric, proto string, n, f, e int,
	delta consensus.Duration, tick, drain time.Duration,
	proxy consensus.ProcessID, opts WANSuiteOptions) (WANRegionStat, error) {

	var stat WANRegionStat
	lats := &Sample{}
	slow := 0
	for s := 0; s <= opts.Samples; s++ {
		lat, fast, err := runWANSample(fab, proto, n, f, e, delta, tick, proxy, opts)
		time.Sleep(drain)
		if err != nil {
			return stat, err
		}
		if s == 0 {
			continue // warm-up: includes TCP dials and page-cache warmth
		}
		lats.Add(float64(lat) / float64(time.Millisecond))
		if !fast {
			slow++
		}
	}
	stat.Samples = lats.N()
	stat.P50Ms = lats.Percentile(50)
	stat.MaxMs = lats.Max()
	stat.SlowPathRate = float64(slow) / float64(lats.N())
	return stat, nil
}

// runWANSample boots one fresh cluster on the fabric, proposes at the
// proxy, and returns its commit latency and whether it decided on the fast
// path. It waits for every process to decide before tearing down, so the only
// frames left in flight are bounded by one one-way delay.
func runWANSample(fab *wanFabric, proto string, n, f, e int,
	delta consensus.Duration, tick time.Duration,
	proxy consensus.ProcessID, opts WANSuiteOptions) (time.Duration, bool, error) {

	oracle := consensus.FixedLeader(proxy)
	drivers := make([]*driver, n)
	nodes := make([]consensus.Protocol, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: delta}
		p, err := buildWANProto(proto, cfg, proxy, oracle)
		if err != nil {
			return 0, false, err
		}
		drivers[i] = newDriver(n, fab.Transport(i), tick, p, fab.persist[i])
		nodes[i] = p
		fab.Attach(i, drivers[i].Handle)
	}
	defer func() {
		for i := range drivers {
			fab.Attach(i, nil)
			drivers[i].Close()
		}
	}()
	for _, d := range drivers {
		d.Start()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	drivers[proxy].Propose(consensus.IntValue(wanValueSeq.Add(1)))
	if _, err := drivers[proxy].WaitDecision(ctx); err != nil {
		return 0, false, fmt.Errorf("proxy decision: %w", err)
	}
	lat := time.Since(start)
	for i, d := range drivers {
		if _, err := d.WaitDecision(ctx); err != nil {
			return 0, false, fmt.Errorf("process %d decision: %w", i, err)
		}
	}
	fast := false
	if rep, ok := nodes[proxy].(consensus.FastPathReporter); ok {
		fp, decided := rep.DecidedFast()
		fast = fp && decided
	}
	return lat, fast, nil
}

// buildWANProto constructs the protocol instance for one slot of a sample.
func buildWANProto(proto string, cfg consensus.Config, proxy consensus.ProcessID,
	oracle consensus.LeaderOracle) (consensus.Protocol, error) {
	if proto == WANEPaxos {
		return protocols.EPaxosFactory(proxy)(cfg, oracle), nil
	}
	fac, err := protocols.ByName(proto)
	if err != nil {
		return nil, err
	}
	return fac(cfg, oracle), nil
}

// wanFabric is one cell's shared delivery fabric: per-slot endpoints with
// the topology's delays installed (they outlive the per-sample drivers)
// and, with Fsync, a per-slot durability hook (nil without).
type wanFabric struct {
	*cluster.Fabric
	persist []func() error
	close   func()
}

func newWANFabric(prefix wan.Topology, n int, opts WANSuiteOptions) (*wanFabric, error) {
	fab := &wanFabric{persist: make([]func() error, n)}
	var closers []func()
	fab.close = func() {
		for _, c := range closers {
			c()
		}
	}
	fail := func(err error) (*wanFabric, error) {
		fab.close()
		return nil, err
	}

	if opts.Fsync {
		for i := 0; i < n; i++ {
			f, err := os.CreateTemp("", "bench-f10-wal-*.log")
			if err != nil {
				return fail(err)
			}
			name := f.Name()
			closers = append(closers, func() {
				f.Close()
				os.Remove(name)
			})
			rec := []byte("step\n")
			fab.persist[i] = func() error {
				if _, err := f.Write(rec); err != nil {
					return err
				}
				return f.Sync()
			}
		}
	}

	var codec *consensus.Codec
	if opts.UseTCP {
		codec = consensus.NewCodec()
		core.RegisterMessages(codec)
		fastpaxos.RegisterMessages(codec)
		epaxos.RegisterMessages(codec)
	}
	var err error
	if fab.Fabric, err = cluster.NewFabric(n, codec, prefix, opts.Scale); err != nil {
		return fail(err)
	}
	closers = append(closers, fab.Fabric.Close)
	return fab, nil
}
