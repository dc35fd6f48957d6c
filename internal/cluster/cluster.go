package cluster

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/wal"
	"repro/internal/wan"
)

// Options is what differs between the clusters the repo boots; everything
// else is the serving configuration (1 ms tick, Δ = 10 ticks or what the
// topology needs, adaptive batching, fsync=always when durable, 30 s server
// op timeout).
type Options struct {
	// N, F, E are the consensus.Config membership and thresholds.
	N, F, E int
	// Groups is the number of consensus groups per process (0 means 1).
	Groups int
	// Leases, when non-nil, enables leader leases on every group.
	Leases *smr.LeaseOptions
	// TCP runs the consensus fabric over loopback TCP instead of the Mesh.
	TCP bool
	// Topology and Scale put geo delays on every link (see NewFabric) and
	// stretch Δ to cover them (wan.Topology.Delta).
	Topology wan.Topology
	Scale    float64
	// Dir, when non-empty, makes the cluster durable: process i keeps its
	// shared WAL, snapshots included, under Dir/p<i> and can be Killed and
	// Restarted from there.
	Dir string
	// SnapshotEvery is shard.Durability.SnapshotEvery.
	SnapshotEvery int
	// Servers fronts every process with a session server on an ephemeral
	// loopback port (Addrs) whose backend follows restarts.
	Servers bool
}

// Cluster is a live in-process cluster built for being measured and abused:
// processes can be crash-killed and rebooted in place from their data
// directories, fsyncs can be stalled, and the fabric carries a fault
// injector.
type Cluster struct {
	o       Options
	fab     *Fabric
	servers []*smr.Server
	addrs   []string

	// fsyncStall, in nanoseconds, is added to every WAL fsync on every
	// process while non-zero.
	fsyncStall atomic.Int64

	mu       sync.Mutex
	runtimes []*shard.Runtime
}

// New boots the cluster: fabric, then every process, then the servers.
func New(o Options) (*Cluster, error) {
	if o.Groups == 0 {
		o.Groups = 1
	}
	var codec *consensus.Codec
	if o.TCP {
		codec = consensus.NewCodec()
		shard.RegisterMessages(codec)
	}
	fab, err := NewFabric(o.N, codec, o.Topology, o.Scale)
	if err != nil {
		return nil, err
	}
	c := &Cluster{o: o, fab: fab, runtimes: make([]*shard.Runtime, o.N)}
	for i := 0; i < o.N; i++ {
		if err := c.boot(i); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: boot process %d: %w", i, err)
		}
	}
	if !o.Servers {
		return c, nil
	}
	for i := 0; i < o.N; i++ {
		srv, err := smr.NewBackendServer(backend{c, i}, "127.0.0.1:0", 30*time.Second)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	return c, nil
}

// boot builds process i's runtime over its data directory (running the
// shared-WAL recovery demux when prior state exists) and attaches it to
// the fabric.
func (c *Cluster) boot(i int) error {
	delta := consensus.Duration(10)
	if c.o.Topology.N() > 0 {
		// A round trip near 10 ms would time every ballot out.
		delta = c.o.Topology.Delta(c.o.Scale)
	}
	opts := shard.Options{
		Groups: c.o.Groups,
		Config: consensus.Config{ID: consensus.ProcessID(i), N: c.o.N, F: c.o.F, E: c.o.E, Delta: delta},
		Tick:   time.Millisecond,
		Leases: c.o.Leases,
	}
	if c.o.Dir != "" {
		opts.Durability = &shard.Durability{
			Dir:           filepath.Join(c.o.Dir, fmt.Sprintf("p%d", i)),
			Policy:        wal.SyncAlways,
			SnapshotEvery: c.o.SnapshotEvery,
			SyncHook: func() {
				if d := c.fsyncStall.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			},
		}
	}
	rt, err := shard.New(opts)
	if err != nil {
		return err
	}
	rt.BindTransport(c.fab.Transport(i))
	c.fab.Attach(i, rt.Handler())
	c.mu.Lock()
	c.runtimes[i] = rt
	c.mu.Unlock()
	rt.Start()
	return nil
}

// backend routes a server's commands to process i's current runtime, so
// the listener outlives a crash-restart like a real process coming back on
// the same port. Operations racing a crash fail at the replica.
type backend struct {
	c *Cluster
	i int
}

func (b backend) Route(key string) *smr.Replica { return b.c.Runtime(b.i).Route(key) }
func (b backend) ID() consensus.ProcessID       { return consensus.ProcessID(b.i) }
func (b backend) Leader() consensus.ProcessID   { return b.c.Runtime(b.i).Leader() }
func (b backend) StatsLine() string             { return b.c.Runtime(b.i).StatsLine() }
func (b backend) InfoLine() string              { return b.c.Runtime(b.i).InfoLine() }

// Runtime returns the runtime currently serving process i. Fetch it per
// operation: a crash-restart swaps it like a reconnect would.
func (c *Cluster) Runtime(i int) *shard.Runtime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runtimes[i]
}

// Fabric returns the consensus fabric (fault injection, counters).
func (c *Cluster) Fabric() *Fabric { return c.fab }

// Addrs lists the session servers' addresses, in process order.
func (c *Cluster) Addrs() []string { return c.addrs }

// Kill crash-stops process i: the shared WAL is aborted without the final
// sync and no further message or acknowledgement escapes (shard.Runtime.Kill).
func (c *Cluster) Kill(i int) {
	c.fab.Attach(i, nil)
	_ = c.Runtime(i).Kill() // a crash has nobody to report an abort error to
}

// Restart reboots a killed process from its data directory through the
// real recovery path.
func (c *Cluster) Restart(i int) error { return c.boot(i) }

// StallFsync adds d to every WAL fsync on every process; 0 heals.
func (c *Cluster) StallFsync(d time.Duration) { c.fsyncStall.Store(int64(d)) }

// WaitLeases waits until every group's lease is held by some process (the
// auto-grant takes it once Ω is stable).
func (c *Cluster) WaitLeases(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		held := 0
		for g := 0; g < c.o.Groups; g++ {
			for i := 0; i < c.o.N; i++ {
				if c.Runtime(i).Group(g).HoldsLease() {
					held++
					break
				}
			}
		}
		if held == c.o.Groups {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: leases cover %d of %d groups after %v", held, c.o.Groups, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitConverged polls until all processes agree — equal applied indexes per
// group, identical values for every key in keys — twice in a row (agreement
// that is also stable), or the timeout passes.
func (c *Cluster) WaitConverged(keys []string, timeout time.Duration) error {
	agree := func() bool {
		for g := 0; g < c.o.Groups; g++ {
			for i := 1; i < c.o.N; i++ {
				if c.Runtime(i).Group(g).Applied() != c.Runtime(0).Group(g).Applied() {
					return false
				}
			}
		}
		for _, k := range keys {
			v0, ok0 := c.Runtime(0).Get(k)
			for i := 1; i < c.o.N; i++ {
				if v, ok := c.Runtime(i).Get(k); ok != ok0 || v != v0 {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		if agree() {
			stable++
			if stable >= 2 {
				return nil
			}
		} else {
			stable = 0
		}
		time.Sleep(20 * time.Millisecond)
	}
	states := make([]string, c.o.N)
	for i := range states {
		states[i] = fmt.Sprintf("p%d applied=%d", i, c.Runtime(i).Info().Applied)
	}
	return fmt.Errorf("cluster: did not reconverge within %v (%v)", timeout, states)
}

// Close shuts everything down gracefully: servers, processes, fabric.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
	for i := 0; i < c.o.N; i++ {
		if rt := c.Runtime(i); rt != nil {
			rt.Close()
		}
	}
	c.fab.Close()
}
