package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wan"
)

// tick is the protocol tick every in-repo bench uses; with Delta 10 a
// protocol timer is 10 ms.
const tick = time.Millisecond

// node is one replica process's worth of stack, as cmd/kv assembles it:
// shard.Runtime over a TCP transport, fronted by the client server.
type node struct {
	id  int
	dir string
	rt  *shard.Runtime
	tcp *transport.TCP
	srv *smr.Server
}

// cluster is the N replicas of one workload in this process, talking over
// loopback TCP. The harness owns two seams per replica — the transport it
// binds and the handler it hands to the transport — and wraps both.
type cluster struct {
	sp    spec
	dir   string
	nodes []*node
	codec *consensus.Codec
	tr    *tracer
	topo  *wan.Topology // nil = no injected delay
	delta consensus.Duration

	sends, handles seam

	// mu orders the fault schedule's changes to a node's rt and srv (nil
	// while the replica is down) against the sampler's reads.
	mu sync.Mutex
	// retired holds the counters of runtimes that were killed, so deltas
	// across a restart stay whole.
	retired counters
}

// newCluster boots the workload's cluster under dir and returns once every
// replica is serving (and, with leases, every group's lease is held).
func newCluster(sp spec, dir string, tr *tracer) (*cluster, error) {
	c := &cluster{sp: sp, dir: dir, tr: tr, codec: consensus.NewCodec(), delta: 10}
	shard.RegisterMessages(c.codec)
	if sp.WAN != "" {
		full, err := wan.Preset(sp.WAN)
		if err != nil {
			return nil, err
		}
		topo, err := full.Prefix(sp.N)
		if err != nil {
			return nil, err
		}
		c.topo = &topo
		// Δ must dominate the largest round trip so no protocol timer (and
		// hence no recovery ballot) fires on a healthy run — the rule
		// internal/bench/wansuite.go uses.
		var maxOneWay time.Duration
		for i := 0; i < sp.N; i++ {
			for j := 0; j < sp.N; j++ {
				if d := topo.OneWayDelay(i, j, 1); d > maxOneWay {
					maxOneWay = d
				}
			}
		}
		c.delta = consensus.Duration(3*(2*maxOneWay/time.Millisecond) + 100)
	}
	for i := 0; i < sp.N; i++ {
		n, err := c.open(i, filepath.Join(dir, fmt.Sprintf("r%d", i)))
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		c.publish(n)
	}
	for _, n := range c.nodes {
		if err := c.serve(n); err != nil {
			c.close()
			return nil, err
		}
	}
	if sp.Leases != nil {
		if err := c.awaitLeases(15 * time.Second); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// open recovers replica id from dataDir and starts its TCP endpoint on a
// fresh loopback port. Peers do not know the port yet: publish, then serve.
func (c *cluster) open(id int, dataDir string) (*node, error) {
	rt, err := shard.New(shard.Options{
		Groups:        c.sp.Groups,
		Config:        c.cfg(id),
		Tick:          tick,
		Durability:    &shard.Durability{Dir: dataDir, Policy: wal.SyncAlways},
		AdaptiveBatch: true,
		Leases:        c.sp.Leases,
	})
	if err != nil {
		return nil, err
	}
	addrs := make(map[consensus.ProcessID]string, c.sp.N)
	for i := 0; i < c.sp.N; i++ {
		addrs[consensus.ProcessID(i)] = "127.0.0.1:0"
	}
	for _, p := range c.nodes {
		if p.id != id {
			addrs[consensus.ProcessID(p.id)] = p.tcp.Addr()
		}
	}
	var opts transport.TCPOptions
	if c.topo != nil {
		opts.LinkDelay = c.topo.TCPLinkDelay(consensus.ProcessID(id), 1)
	}
	tcp, err := transport.NewTCPWithOptions(consensus.ProcessID(id), addrs, c.codec,
		c.tr.wrapHandler(id, rt.Handler(), &c.handles), opts)
	if err != nil {
		rt.Close()
		return nil, err
	}
	rt.BindTransport(c.tr.wrapTransport(id, tcp, &c.sends))
	return &node{id: id, dir: dataDir, rt: rt, tcp: tcp}, nil
}

func (c *cluster) cfg(id int) consensus.Config {
	return consensus.Config{ID: consensus.ProcessID(id), N: c.sp.N, F: c.sp.F, E: c.sp.E, Delta: c.delta}
}

// publish tells every other replica where n listens.
func (c *cluster) publish(n *node) {
	for _, p := range c.nodes {
		if p.id != n.id {
			p.tcp.SetPeerAddr(consensus.ProcessID(n.id), n.tcp.Addr())
			n.tcp.SetPeerAddr(consensus.ProcessID(p.id), p.tcp.Addr())
		}
	}
}

// serve starts n's groups and its client-facing server.
func (c *cluster) serve(n *node) error {
	n.rt.Start()
	srv, err := smr.NewBackendServer(n.rt, "127.0.0.1:0", 30*time.Second)
	if err != nil {
		return err
	}
	n.srv = srv
	return nil
}

// awaitLeases waits until some replica holds every group's lease, so the
// measured phase runs against the steady state, not the bootstrap.
func (c *cluster) awaitLeases(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		held := 0
		for g := 0; g < c.sp.Groups; g++ {
			for _, n := range c.nodes {
				if n.rt.Group(g).HoldsLease() {
					held++
					break
				}
			}
		}
		if held == c.sp.Groups {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("auto-grant covered %d of %d groups in %v", held, c.sp.Groups, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clientAddrs returns the server addresses a workload's connections dial:
// every replica in id order for PreferLeader clients, replica 0 otherwise.
func (c *cluster) clientAddrs() []string {
	if !c.sp.PreferLeader {
		return []string{c.nodes[0].srv.Addr()}
	}
	addrs := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		addrs[i] = n.srv.Addr()
	}
	return addrs
}

// proposer is the replica whose runtime accepts a write to key: replica 0,
// or under leases whichever holds the lease of key's group.
func (c *cluster) proposer(key string) *node {
	if c.sp.Leases != nil {
		for _, n := range c.nodes {
			if n.rt.Route(key).HoldsLease() {
				return n
			}
		}
	}
	return c.nodes[0]
}

// kill crashes replica id (WAL aborted first, no final sync) and keeps its
// counters.
func (c *cluster) kill(id int) error {
	n := c.nodes[id]
	last := n.counters()
	last.walRecs = 0 // the WAL's index space survives the restart; every other counter starts over
	rt, srv := n.rt, n.srv
	c.mu.Lock()
	c.retired.add(last)
	n.rt, n.srv = nil, nil
	c.mu.Unlock()
	srv.Close()
	return rt.Kill()
}

// reopen recovers a killed replica from its data directory on a fresh TCP
// endpoint and returns how long shard.New (WAL replay included) took.
func (c *cluster) reopen(id int) (replay time.Duration, err error) {
	t0 := time.Now()
	n, err := c.open(id, c.nodes[id].dir)
	if err != nil {
		return 0, err
	}
	replay = time.Since(t0)
	c.publish(n)
	if err := c.serve(n); err != nil {
		n.rt.Close()
		return 0, err
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	return replay, nil
}

// applied is replica id's applied index summed over its groups.
func (c *cluster) applied(id int) int { return c.nodes[id].rt.Info().Applied }

func (c *cluster) close() {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
		if n.rt != nil {
			n.rt.Close()
		}
	}
	os.RemoveAll(c.dir)
}

// delayNote states the injected delays, as every report must.
func (c *cluster) delayNote() string {
	if c.topo == nil {
		return "no injected delay (loopback)"
	}
	s := fmt.Sprintf("injected one-way delays (TCPOptions.LinkDelay, %s first %d slots), ms from slot 0:", c.sp.WAN, c.sp.N)
	for j := 1; j < c.sp.N; j++ {
		s += fmt.Sprintf(" %s=%.1f", c.topo.Region(j), float64(c.topo.OneWayDelay(0, j, 1))/1e6)
	}
	return s + fmt.Sprintf("; Delta=%d ticks of %v", c.delta, tick)
}

// counters is the sum of the public counter surfaces over the replicas.
type counters struct {
	tr                 transport.Stats
	walSyncs, walRecs  uint64
	batches, cmds      uint64
	leaseHits          uint64
	leaseMisses        uint64
	leaseRefused       uint64
	leaseGrants        uint64 // applied grants as replica 0 counts them (every replica applies every grant)
	frames, busy, badF uint64
}

func (a *counters) add(b counters) {
	a.tr = a.tr.Merge(b.tr)
	a.walSyncs += b.walSyncs
	a.walRecs += b.walRecs
	a.batches += b.batches
	a.cmds += b.cmds
	a.leaseHits += b.leaseHits
	a.leaseMisses += b.leaseMisses
	a.leaseRefused += b.leaseRefused
	a.leaseGrants += b.leaseGrants
	a.frames += b.frames
	a.busy += b.busy
	a.badF += b.badF
}

func (n *node) counters() counters {
	var c counters
	c.tr = n.tcp.Stats()
	if st, ok := n.rt.WalStats(); ok {
		c.walSyncs, c.walRecs = st.Syncs, st.NextIndex
	}
	for g := 0; g < n.rt.Groups(); g++ {
		bs := n.rt.Group(g).BatchStats()
		c.batches += bs.Batches
		c.cmds += bs.Cmds
		ls := n.rt.Group(g).LeaseStats()
		c.leaseHits += ls.Hits
		c.leaseMisses += ls.Misses
		c.leaseRefused += ls.Refused
		if n.id == 0 {
			c.leaseGrants += ls.Grants
		}
	}
	sc := n.srv.Counters()
	c.frames, c.busy, c.badF = sc.Frames, sc.Busy, sc.BadFrames
	return c
}

// counters sums the live replicas and the retired ones. It is read at
// window boundaries only, when no fault schedule is running, so it needs no
// lock.
func (c *cluster) counters() counters {
	sum := c.retired
	for _, n := range c.nodes {
		if n.rt != nil {
			sum.add(n.counters())
		}
	}
	return sum
}

// gauges reads what only sampling can see: the transports' total queue
// depth and each replica's WAL size on disk (-1 while it is down).
func (c *cluster) gauges() (queueDepth int, walBytes []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	walBytes = make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		walBytes[i] = -1
		if n.rt == nil {
			continue
		}
		queueDepth += n.tcp.Stats().QueueDepth
		if st, ok := n.rt.WalStats(); ok {
			walBytes[i] = st.Bytes
		}
	}
	return queueDepth, walBytes
}
