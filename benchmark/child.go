package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/smr"
)

// Trace modes of a child run.
const (
	traceOff  = "off"  // the untraced window only: end-to-end metrics
	traceOn   = "on"   // a short untraced window, the traced pass and the layer probes: per-layer metrics
	traceBoth = "both" // the full untraced window, then the traced pass and probes
)

// childConfig is one workload run in its own process.
type childConfig struct {
	Workload string
	Seed     int64
	Window   time.Duration // the untraced measured window (15 s by default; the driver's --seconds)
	Trace    string
	Scratch  string // data directories live here
	TraceDir string // trace-<workload>.jsonl is written here; "" = no file
}

// workloadReport is what one child run found.
type workloadReport struct {
	Workload   string    `json:"workload"`
	Why        string    `json:"why"`
	Seed       int64     `json:"seed"`
	WindowS    float64   `json:"window_s"`
	TracedS    float64   `json:"traced_s"`
	Loop       string    `json:"loop"`
	Conns      int       `json:"conns"`
	Depth      int       `json:"depth"`
	Delay      string    `json:"delay"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Correct    bool      `json:"correct"`
	EndToEnd   metrics   `json:"end_to_end"`
	PerLayer   metrics   `json:"per_layer,omitempty"`
	Notes      []string  `json:"notes,omitempty"`
	SetupRunsS []float64 `json:"setup_runs_s"`
}

// setUps is how many times a run sets its cluster up: a set-up takes 40 ms
// to 1.5 s and is the noisiest thing a run times, so setup_s is the median
// of three.
const setUps = 3

// env is one set-up cluster with its connections and preloaded key space.
type env struct {
	c      *cluster
	conns  []*smr.SessionClient
	led    *ledger
	closed bool
}

func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, sc := range e.conns {
		sc.Close()
	}
	e.c.close()
}

// setUp boots the cluster, preloads every key with sequence 1, then opens
// the workload's connections. All of it is setup_s.
func setUp(sp spec, dir string, tr *tracer) (*env, error) {
	c, err := newCluster(sp, dir, tr)
	if err != nil {
		return nil, err
	}
	e := &env{c: c, led: newLedger(sp.Conns)}
	if err := preload(c, e.led); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	opts := smr.SessionOptions{Timeout: 30 * time.Second, Depth: sp.Depth, PreferLeader: sp.PreferLeader}
	for i := 0; i < sp.Conns; i++ {
		sc, err := smr.NewSessionClient(c.clientAddrs(), opts)
		if err == nil {
			// A first write completes the handshake and, under leases,
			// follows the redirect to the leaseholder.
			k := i * keysPerConn
			seq, val := e.led.next(k)
			if err = sc.Put(e.led.keys[k], val); err == nil {
				e.led.ack(k, seq)
			}
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
		e.conns = append(e.conns, sc)
	}
	return e, nil
}

// preload writes sequence 1 to every key, in process and 256 at a time: the
// session server runs 16 commands per connection at once, which over WAN
// delays would make the preload the longest phase of the run.
func preload(c *cluster, led *ledger) error {
	sem := make(chan struct{}, 256)
	errs := make(chan error, len(led.keys))
	for k, key := range led.keys {
		_, val := led.next(k)
		rt := c.proposer(key).rt
		sem <- struct{}{}
		go func(k int, key string) {
			err := rt.Put(context.Background(), key, val)
			if err == nil {
				led.ack(k, 1)
			}
			<-sem
			errs <- err
		}(k, key)
	}
	for range led.keys {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// sampler polls, every 100 ms, what no counter accumulates: who leads each
// group, how deep the transport queues are, and how much the WALs grew.
type sampler struct {
	c    *cluster
	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	leaders       []int
	leaderChanges int
	queueMax      int
	walLast       []int64
	walGrown      int64 // bytes added over the intervals in which no WAL shrank
	walIntervals  int   // all intervals
	walCounted    int   // intervals counted in walGrown
}

func startSampler(c *cluster) *sampler {
	s := &sampler{c: c, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	leaders := s.c.nodes[0].rt.GroupLeaders() // replica 0 is never killed
	depth, wal := s.c.gauges()
	s.mu.Lock()
	defer s.mu.Unlock()
	for g, l := range leaders {
		if s.leaders != nil && s.leaders[g] != int(l) {
			s.leaderChanges++
		}
	}
	s.leaders = s.leaders[:0]
	for _, l := range leaders {
		s.leaders = append(s.leaders, int(l))
	}
	if depth > s.queueMax {
		s.queueMax = depth
	}
	// A WAL that shrank was truncated behind a snapshot; its growth over
	// that interval is unknowable from Stats, so the interval is left out
	// and the total scaled up by the share of intervals counted.
	if s.walLast != nil {
		s.walIntervals++
		var grown int64
		shrank := false
		for i, b := range wal {
			if b < 0 || s.walLast[i] < 0 {
				continue // replica down at either end
			}
			if b < s.walLast[i] {
				shrank = true
			}
			grown += b - s.walLast[i]
		}
		if !shrank {
			s.walCounted++
			s.walGrown += grown
		}
	}
	s.walLast = wal
}

// reading is the sampler's state at a window boundary.
type reading struct {
	leaderChanges int
	walBytes      float64
}

func (s *sampler) read(resetMax bool) (r reading, queueMax int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.leaderChanges = s.leaderChanges
	if s.walCounted > 0 {
		r.walBytes = float64(s.walGrown) * float64(s.walIntervals) / float64(s.walCounted)
	}
	queueMax = s.queueMax
	if resetMax {
		s.queueMax = 0
	}
	return r, queueMax
}

func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// measurement is one measured window: its boundaries and what the counter
// surfaces read at each.
type measurement struct {
	start, end time.Time
	cpu        time.Duration // process user+sys CPU time spent between start and end
	ctr        [2]counters
	mem        [2]runtime.MemStats
	sends      [2]seamReading
	handles    [2]seamReading
	samp       [2]reading
	queueMax   int
	applied    [2][]int // per group, replica 0
	// Fault schedule (Crash workloads).
	killAt, reopenAt time.Time
	replay, catchup  time.Duration
}

type seamReading struct{ calls, busyNs int64 }

func (s *seam) read() seamReading { return seamReading{s.calls.Load(), s.busyNs.Load()} }

func (m *measurement) dur() time.Duration { return m.end.Sub(m.start) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func groupApplied(c *cluster) []int {
	rt := c.nodes[0].rt
	out := make([]int, rt.Groups())
	for g := range out {
		out[g] = rt.Group(g).Applied()
	}
	return out
}

// measure records one window of length d: it reads every surface, lets the
// load run (through the fault schedule, if the workload has one), and reads
// them again.
func measure(e *env, g *generator, s *sampler, win int8, d time.Duration) (*measurement, error) {
	c := e.c
	m := &measurement{}
	snap := func(i int) {
		m.ctr[i] = c.counters()
		m.sends[i], m.handles[i] = c.sends.read(), c.handles.read()
		m.applied[i] = groupApplied(c)
		runtime.ReadMemStats(&m.mem[i])
	}
	snap(0)
	m.samp[0], _ = s.read(true)
	var pass time.Time
	if win == winTraced {
		pass = c.tr.begin()
	}
	m.start = time.Now()
	cpu0 := cpuTime()
	g.window.Store(int32(win))

	fault := make(chan error, 1)
	if c.sp.Crash {
		go func() { fault <- crashAndRejoin(c, m, d) }()
	} else {
		fault <- nil
	}
	time.Sleep(time.Until(m.start.Add(d)))
	g.window.Store(winNone)
	m.end = time.Now()
	m.cpu = cpuTime() - cpu0
	faultErr := <-fault
	if win == winTraced {
		c.tr.end(pass)
	}
	m.samp[1], m.queueMax = s.read(false)
	snap(1)
	return m, faultErr
}

// crashAndRejoin kills the last replica a third of the way into the window
// and reopens it from its data directory at two thirds, then waits for it
// to come within 50 applied commands of replica 0.
func crashAndRejoin(c *cluster, m *measurement, d time.Duration) error {
	victim := c.sp.N - 1
	time.Sleep(time.Until(m.start.Add(d / 3)))
	m.killAt = time.Now()
	if err := c.kill(victim); err != nil {
		return fmt.Errorf("kill replica %d: %w", victim, err)
	}
	time.Sleep(time.Until(m.start.Add(2 * d / 3)))
	m.reopenAt = time.Now()
	replay, err := c.reopen(victim)
	if err != nil {
		return fmt.Errorf("reopen replica %d: %w", victim, err)
	}
	m.replay = replay
	rejoined := time.Now()
	for c.applied(victim) < c.applied(0)-50 {
		if time.Since(rejoined) > 30*time.Second {
			return fmt.Errorf("replica %d did not catch up in 30s (applied %d vs %d)", victim, c.applied(victim), c.applied(0))
		}
		time.Sleep(time.Millisecond)
	}
	m.catchup = time.Since(rejoined)
	return nil
}

// checkConns refuses a workload with more connections than CPUs: the one
// generator process would be measuring its own scheduling. Pipeline depth,
// not connection count, sets concurrency.
func checkConns(sp spec, nproc int) error {
	if sp.Conns > nproc {
		return fmt.Errorf("%s wants %d connections but the machine has %d CPUs: raise depth, not connections", sp.Name, sp.Conns, nproc)
	}
	return nil
}

// runChild runs one workload start to finish in this process.
func runChild(cfg childConfig) (*workloadReport, error) {
	sp, err := specByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := checkConns(sp, runtime.NumCPU()); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.Scratch, fmt.Sprintf("%s-%d", sp.Name, os.Getpid()))
	defer os.RemoveAll(dir)
	tr := newTracer(sp.Name)

	rep := &workloadReport{
		Workload: sp.Name, Why: sp.Why, Seed: cfg.Seed,
		Loop: "closed", Conns: sp.Conns, Depth: sp.Depth,
		EndToEnd: metrics{},
	}
	if sp.OpenRate > 0 {
		rep.Loop = fmt.Sprintf("open, %d PUT/s per connection", sp.OpenRate)
	}

	// The cluster is set up setUps times and setup_s is the median; the
	// last one is measured.
	var e *env
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		e, err = setUp(sp, filepath.Join(dir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()
	rep.Delay = e.c.delayNote()

	untraced, traced := cfg.Window, time.Duration(0)
	switch cfg.Trace {
	case traceBoth:
		traced = cfg.Window * 6 / 15
	case traceOn:
		untraced, traced = cfg.Window*4/10, cfg.Window*6/10
	}
	conns := make([]kvConn, len(e.conns))
	for i, sc := range e.conns {
		conns[i] = sc
	}
	gen := newGenerator(sp, cfg.Seed, conns, e.led, tr)
	samp := startSampler(e.c)
	gen.start()
	time.Sleep(min(cfg.Window*2/15, 2*time.Second)) // warm-up: batchers adapt, caches fill, lazy dials finish

	m0, err := measure(e, gen, samp, winUntraced, untraced)
	var m1 *measurement
	if err == nil && traced > 0 {
		m1, err = measure(e, gen, samp, winTraced, traced)
	}
	gen.halt()
	samp.close()
	if err != nil {
		return nil, err
	}
	rep.WindowS = m0.dur().Seconds()

	ws0 := gen.collect(winUntraced)
	rep.Attempted, rep.Failed = ws0.attempted, ws0.failed
	endToEnd(rep.EndToEnd, sp, ws0, m0)
	faultNotes(rep, "untraced window", m0)

	if m1 != nil {
		rep.TracedS = m1.dur().Seconds()
		rep.PerLayer = metrics{}
		ws1 := gen.collect(winTraced)
		rep.Attempted += ws1.attempted
		rep.Failed += ws1.failed
		perLayer(rep.PerLayer, sp, e, ws1, m1)
		rep.PerLayer.set("trace.overhead_share",
			1-ratio(float64(ws1.acked)/m1.dur().Seconds(), float64(ws0.acked)/m0.dur().Seconds()), "share", ws1.acked)
		faultNotes(rep, "traced pass", m1)
		rep.Notes = append(rep.Notes, fmt.Sprintf("trace: %d spans kept, %d dropped", tr.kept.Load(), tr.dropped.Load()))
		afterWindowProbes(rep.PerLayer, sp, e)
	}

	wrong := readBack(e, 10*time.Second) + int(e.led.staleReads())
	rep.EndToEnd.set("wrong_results", float64(wrong), "count", len(e.led.keys))
	rep.Correct = wrong == 0

	e.close()
	if m1 != nil {
		if err := layerProbes(rep.PerLayer, filepath.Join(dir, "probe")); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if cfg.TraceDir != "" {
			if err := tr.write(filepath.Join(cfg.TraceDir, "trace-"+sp.Name+".jsonl")); err != nil {
				return nil, err
			}
		}
	}

	rep.EndToEnd.set("setup_s", median(rep.SetupRunsS), "s", len(rep.SetupRunsS))
	if mb, err := rssPeakMB(); err == nil {
		rep.EndToEnd.set("rss_peak_mb", mb, "MB", 0)
	}
	return rep, nil
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	//lint:allow quorumarith the middle of a sorted slice, not a majority
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// endToEnd fills the metrics a client of the service sees, from the whole
// untraced window: nothing is averaged away, so a stall of any kind — GC,
// truncation, a lease lapse, the kill and the rejoin — lands in the tail it
// belongs to.
func endToEnd(out metrics, sp spec, ws windowStats, m *measurement) {
	out.set("ops_s", float64(ws.acked)/m.dur().Seconds(), "1/s", ws.acked)
	out.set("cpu_us_per_op", ratio(float64(m.cpu.Microseconds()), float64(ws.acked)), "us", ws.acked)
	out.setPercentile("lat_p50_ms", ws.put, 0.50)
	out.setPercentile("lat_p99_ms", ws.put, 0.99)
	if sp.ReadPct > 0 {
		out.setPercentile("read_p50_ms", ws.read, 0.50)
		out.setPercentile("read_p99_ms", ws.read, 0.99)
	}
	out.set("failed_share", ratio(float64(ws.failed), float64(ws.attempted)), "share", ws.attempted)
}

// perLayer fills the counter-derived per-layer metrics of the traced pass.
func perLayer(out metrics, sp spec, e *env, ws windowStats, m *measurement) {
	ops := float64(ws.acked)
	n := ws.acked
	a, b := m.ctr[0], m.ctr[1]
	perOp := func(name string, delta float64, unit string) { out.set(name, ratio(delta, ops), unit, n) }

	perOp("session.frames_per_op", float64(b.frames-a.frames), "count")
	out.set("session.busy_rejects", float64(b.busy-a.busy), "count", n)
	out.set("session.bad_frames", float64(b.badF-a.badF), "count", n)

	out.set("smr.cmds_per_batch", ratio(float64(b.cmds-a.cmds), float64(b.batches-a.batches)), "count", int(b.batches-a.batches))
	perOp("smr.handle_busy_us_per_op", float64(m.handles[1].busyNs-m.handles[0].busyNs)/1e3, "us")
	perOp("smr.handles_per_op", float64(m.handles[1].calls-m.handles[0].calls), "count")

	perOp("transport.sends_per_op", float64(b.tr.Sends-a.tr.Sends), "count")
	perOp("transport.bytes_per_op", float64(b.tr.BytesSent-a.tr.BytesSent), "B")
	out.set("transport.drops", float64(b.tr.Drops-a.tr.Drops), "count", n)
	out.set("transport.reconnects", float64(b.tr.Reconnects-a.tr.Reconnects), "count", n)
	out.set("transport.queue_depth_max", float64(m.queueMax), "count", 0)
	perOp("transport.send_busy_us_per_op", float64(m.sends[1].busyNs-m.sends[0].busyNs)/1e3, "us")

	perOp("wal.fsyncs_per_op", float64(b.walSyncs-a.walSyncs), "count")
	perOp("wal.records_per_op", float64(b.walRecs-a.walRecs), "count")
	perOp("wal.bytes_per_op", m.samp[1].walBytes-m.samp[0].walBytes, "B")

	if sp.Groups > 1 {
		var max, sum float64
		for g := range m.applied[1] {
			d := float64(m.applied[1][g] - m.applied[0][g])
			sum += d
			if d > max {
				max = d
			}
		}
		out.set("shard.group_imbalance", ratio(max, sum/float64(sp.Groups)), "ratio", int(sum))
	}
	if sp.Leases != nil {
		hits, misses := float64(b.leaseHits-a.leaseHits), float64(b.leaseMisses-a.leaseMisses)
		out.set("lease.hit_share", ratio(hits, hits+misses), "share", int(hits+misses))
		out.set("lease.grants", float64(b.leaseGrants-a.leaseGrants), "count", 0)
		out.set("lease.refused", float64(b.leaseRefused-a.leaseRefused), "count", 0)
	}
	if e.c.topo != nil {
		floor := float64(e.c.topo.QuorumRTT(0, e.c.cfg(0).FastQuorum()))
		out.set("wan.floor_ms", floor, "ms", 0)
		if p50, ok := ws.put.percentile(0.50); ok {
			out.set("wan.p50_over_floor_ms", p50-floor, "ms", len(ws.put))
		}
	}
	out.set("omega.leader_changes", float64(m.samp[1].leaderChanges-m.samp[0].leaderChanges), "count", 0)

	if sp.Crash {
		out.set("recovery.replay_ms", float64(m.replay)/1e6, "ms", 1)
		out.set("recovery.catchup_ms", float64(m.catchup)/1e6, "ms", 1)
		// Each request belongs to the phase its due time falls in, so the
		// backlog a stall builds is charged to the phase that built it.
		kill, reopen := int64(m.killAt.Sub(ws.base)), int64(m.reopenAt.Sub(ws.base))
		var healthy, down, rejoin sample
		for _, r := range ws.recs {
			switch {
			case r.failed:
			case r.due < kill:
				healthy = append(healthy, r.end-r.due)
			case r.due < reopen:
				down = append(down, r.end-r.due)
			default:
				rejoin = append(rejoin, r.end-r.due)
			}
		}
		out.setPercentile("phase.healthy.p99_ms", healthy, 0.99)
		out.setPercentile("phase.down.p99_ms", down, 0.99)
		out.setPercentile("phase.rejoin.p99_ms", rejoin, 0.99)
	}
	if sp.OpenRate > 0 {
		out.setPercentile("gen.lag_p99_ms", ws.lag, 0.99)
	}

	perOp("runtime.allocs_per_op", float64(m.mem[1].Mallocs-m.mem[0].Mallocs), "count")
	perOp("runtime.alloc_bytes_per_op", float64(m.mem[1].TotalAlloc-m.mem[0].TotalAlloc), "B")
	out.set("runtime.gc_cycles", float64(m.mem[1].NumGC-m.mem[0].NumGC), "count", 0)
	out.set("runtime.gc_pause_ms", float64(m.mem[1].PauseTotalNs-m.mem[0].PauseTotalNs)/1e6, "ms", int(m.mem[1].NumGC-m.mem[0].NumGC))
}

// faultNotes records the kill and the restart of a Crash workload's window.
func faultNotes(rep *workloadReport, which string, m *measurement) {
	if m.killAt.IsZero() {
		return
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%s: replica killed at +%.2fs, reopened at +%.2fs (replay %.1f ms, catch-up %.1f ms)",
		which, m.killAt.Sub(m.start).Seconds(), m.reopenAt.Sub(m.start).Seconds(),
		float64(m.replay)/1e6, float64(m.catchup)/1e6))
}

// readBack checks every acknowledged write on every live replica's applied
// state, waiting up to limit for stragglers to apply the tail of the log.
func readBack(e *env, limit time.Duration) (lost int) {
	deadline := time.Now().Add(limit)
	for {
		lost = 0
		for _, n := range e.c.nodes {
			lost += e.led.lost(n.rt.Get)
		}
		if lost == 0 || time.Now().After(deadline) {
			return lost
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rssPeakMB is this process's peak resident set (VmHWM).
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// afterWindowProbes times single calls on the still-warm cluster once the
// load has stopped: the client wire alone, the stack without the client
// wire, and a lease read without either.
func afterWindowProbes(out metrics, sp spec, e *env) {
	// Up to 300 calls or one second of them, whichever ends first: over WAN
	// delays a serial write takes 80 ms.
	const calls, budget = 300, time.Second
	sc := e.conns[0]
	key := e.led.keys[0]
	var wire sample
	for i, start := 0, time.Now(); i < calls && time.Since(start) < budget; i++ {
		t0 := time.Now()
		if _, err := sc.Get(key); err == nil {
			wire = append(wire, int64(time.Since(t0)))
		}
	}
	if v, ok := wire.percentile(0.5); ok {
		out.set("session.wire_rtt_us", v*1e3, "us", len(wire))
	}

	// Serial Runtime.Put on the replica the clients use, on a key of its
	// own so the ledger is not disturbed.
	proposer := e.c.proposer("probe")
	var inproc sample
	for i, start := 0, time.Now(); i < calls && time.Since(start) < budget; i++ {
		t0 := time.Now()
		if err := proposer.rt.Put(context.Background(), "probe", value(int64(i))); err == nil {
			inproc = append(inproc, int64(time.Since(t0)))
		}
	}
	if v, ok := inproc.percentile(0.5); ok {
		out.set("smr.inproc_put_us", v*1e3, "us", len(inproc))
	}

	if sp.Leases != nil {
		r := e.c.proposer(key).rt.Route(key)
		const reads = 20000
		served := 0
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			if _, _, ok := r.LeaseRead(key); ok {
				served++
			}
		}
		if served > 0 {
			out.set("lease.local_read_ns", float64(time.Since(t0).Nanoseconds())/reads, "ns", served)
		}
	}
}
