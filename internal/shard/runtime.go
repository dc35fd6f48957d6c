package shard

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
	"repro/internal/omega"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Runtime is one process: it hosts N independent consensus groups, each an
// smr.Replica with its own slot space, lease and snapshots, and is the
// one owner of everything a process has one of, which it opens, hands to
// every group, and alone closes:
//
//   - one transport, shared through group-tagged envelopes (envelope.go):
//     each group sends on a view of it, fixed when the group is built;
//   - one WAL, interleaving group-tagged records, snapshots included;
//   - one outbox/fsync scheduler (smr.IOScheduler) built on that WAL, the
//     groups' only handle on it: it commits the log before anything a
//     record guards leaves the process, so the group-commit stream coalesces
//     fsyncs across every group, and truncates it below every group's
//     snapshot;
//   - one Ω detector and one applied-index gossip (process.go): a peer is
//     heard from once per process, not per group.
//
// Keys route to groups through a deterministic HashRouter; the Runtime
// implements smr.Backend, so the line/session servers route PUT/GET/DEL/
// GETL transparently and the wire does not show the group count.
//
// Construction order: New (which recovers every group from the shared WAL),
// then build the real transport around Handler(), then BindTransport, then
// Start. A group that sends before BindTransport, or once shutdown has
// begun, sends nothing.
type Runtime struct {
	cfg      consensus.Config
	tick     time.Duration
	router   HashRouter
	inner    *consensus.Codec // decodes what a group envelope carries
	log      *wal.WAL         // nil: no durability
	io       *smr.IOScheduler
	leaders  *leaders
	groups   []*smr.Replica
	recovery []smr.RecoveryInfo
	walInfo  wal.OpenInfo

	mu     sync.Mutex
	tr     transport.Transport
	closed bool
	clock  *deadline.Timer // the Ω and gossip beat Start arms (every)
}

// Durability configures the shared WAL, which holds every group's records
// and snapshots: a process's durable state is Dir/wal alone. There is one
// durability rule and nothing selects it: no promise, vote, decision or
// acknowledgement leaves the process before the record it depends on is on
// stable storage — the recovering acceptor the paper's recovery rule assumes.
type Durability struct {
	// Dir is the process data directory.
	Dir string
	// Policy selects nothing: New accepts only its zero value,
	// wal.SyncAlways, the rule above. It is kept only for callers that
	// still set it.
	Policy wal.SyncPolicy
	// SnapshotEvery is the per-group snapshot period in applied commands
	// (default 64; <0 disables automatic snapshots).
	SnapshotEvery int
	// SyncHook runs before each WAL fsync (tests only; see wal.Options).
	// Stalling it stalls durability, which must stall every dependent
	// message and completion.
	SyncHook func()
	// FailpointLimit, when >0, injects a crash after that many WAL bytes
	// (tests only; see wal.Options.FailpointLimit).
	FailpointLimit int64
}

// Options configures New.
type Options struct {
	// Groups is the number of consensus groups this process hosts (>= 1).
	Groups int
	// Config is the consensus configuration shared by every group: one
	// process id, one membership, N groups layered over it.
	Config consensus.Config
	// Tick is the protocol tick duration, positive: slot timers count in it,
	// the process heartbeats every Config.Delta ticks and gossips every 5Δ.
	Tick time.Duration
	// Durability, when non-nil, enables the shared WAL under Durability.Dir.
	Durability *Durability
	// AdaptiveBatch selects nothing: every group batches its writes. It is
	// kept only for callers that still set it.
	AdaptiveBatch bool
	// Leases, when non-nil, enables replicated leader leases on every
	// group (smr.ReplicaOptions.Leases): each group tracks its own
	// leaseholder, so GETLs on a key whose group this process leads are
	// served locally.
	Leases *smr.LeaseOptions
}

// New builds the runtime and recovers every group from the shared WAL (one
// replay pass per group; each pass skips the other groups' records): the
// WAL first, then the scheduler that commits it, then the groups. Groups are
// numbered 0..Groups-1. A Durability.Policy other than wal.SyncAlways is
// refused, and so is a snapshot file of the older layout (Dir/snap/*,
// Dir/g<i>/snap/*), which nothing reads though the WAL was truncated behind it.
func New(opts Options) (*Runtime, error) {
	if opts.Groups < 1 {
		return nil, fmt.Errorf("shard: groups must be >= 1, got %d", opts.Groups)
	}
	rt := &Runtime{
		cfg:     opts.Config,
		tick:    opts.Tick,
		router:  NewHashRouter(opts.Groups),
		inner:   consensus.NewCodec(),
		leaders: &leaders{det: omega.New(opts.Config, 0)},
	}
	smr.RegisterMessages(rt.inner)
	if d := opts.Durability; d != nil {
		if d.Policy != wal.SyncAlways {
			return nil, fmt.Errorf("shard: fsync policy %q refused: nothing leaves the process before the records it depends on are on stable storage (%q)", d.Policy, wal.SyncAlways)
		}
		for _, pattern := range []string{"snap/*", "g*/snap/*"} {
			if old, _ := fs.Glob(os.DirFS(d.Dir), pattern); len(old) > 0 {
				return nil, fmt.Errorf("shard: %s is a snapshot file of an older data layout: snapshots are WAL records now, and this directory's WAL was truncated behind that file", filepath.Join(d.Dir, old[0]))
			}
		}
		w, winfo, err := wal.Open(filepath.Join(d.Dir, "wal"), wal.Options{
			SyncHook:       d.SyncHook,
			FailpointLimit: d.FailpointLimit,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		rt.log, rt.walInfo = w, winfo
	}
	rt.io = smr.NewIOScheduler(rt.log, opts.Groups)
	for g := 0; g < opts.Groups; g++ {
		ro := smr.ReplicaOptions{Leases: opts.Leases}
		if opts.Durability != nil {
			ro.Durability = &smr.DurabilityOptions{Group: g, SnapshotEvery: opts.Durability.SnapshotEvery}
		}
		r, info, err := smr.NewReplica(opts.Config, opts.Tick, rt.io, rt.leaders, groupView{rt: rt, g: g}, ro)
		if err != nil {
			rt.abandon()
			return nil, fmt.Errorf("shard: group %d: %w", g, err)
		}
		if opts.Durability != nil {
			rt.recovery = append(rt.recovery, info)
		}
		rt.groups = append(rt.groups, r)
	}
	return rt, nil
}

// abandon tears down a partially constructed runtime.
func (rt *Runtime) abandon() { _ = rt.shutdown(false) }

// Handler returns the inbound handler for the process's real transport:
// construct the transport with it, then call BindTransport.
func (rt *Runtime) Handler() transport.Handler { return rt.handle }

// BindTransport installs the process transport, which every group's view
// sends on from here on. The runtime takes ownership: Close/Kill close it
// after the groups.
func (rt *Runtime) BindTransport(tr transport.Transport) {
	rt.mu.Lock()
	rt.tr = tr
	rt.mu.Unlock()
}

// send hands msg to the bound transport. Before BindTransport, and once
// shutdown has begun, it drops msg: a killed process says nothing more.
func (rt *Runtime) send(to consensus.ProcessID, msg consensus.Message) error {
	rt.mu.Lock()
	tr, closed := rt.tr, rt.closed
	rt.mu.Unlock()
	if tr == nil || closed {
		return nil
	}
	return tr.Send(to, msg)
}

// Start boots every group and the process's clocks: a heartbeat now and one
// per Δ, and a Status with every statusBeats-th.
func (rt *Runtime) Start() {
	for _, r := range rt.groups {
		r.Start()
	}
	rt.broadcast(&omega.Heartbeat{})
	beats := 0
	rt.every(time.Duration(rt.cfg.Delta)*rt.tick, func() {
		beats++
		rt.beat(beats%statusBeats == 0)
	})
}

// Groups returns the number of groups hosted.
func (rt *Runtime) Groups() int { return len(rt.groups) }

// Group returns group g's replica (tests, benches, per-group inspection).
func (rt *Runtime) Group(g int) *smr.Replica { return rt.groups[g] }

// Router returns the runtime's key router.
func (rt *Runtime) Router() HashRouter { return rt.router }

// Recovery reports what each group reconstructed on open (empty without
// durability), plus whether the shared WAL's tail was torn.
func (rt *Runtime) Recovery() ([]smr.RecoveryInfo, wal.OpenInfo) {
	return rt.recovery, rt.walInfo
}

// WalStats reports the shared WAL's counters (false without durability).
func (rt *Runtime) WalStats() (wal.Stats, bool) {
	if rt.log == nil {
		return wal.Stats{}, false
	}
	return rt.log.Stats(), true
}

// SyncIO barriers every group's outbox: when it returns, all I/O emitted
// before the call is externally visible (see smr.Replica.SyncIO).
func (rt *Runtime) SyncIO() {
	for _, r := range rt.groups {
		r.SyncIO()
	}
}

// Close shuts the runtime down gracefully: nothing is sent from here on, the
// beat stops, every group drains through the shared scheduler (committing
// and waking what it queued), then the scheduler stops, the shared WAL syncs
// closed, and the transport closes.
func (rt *Runtime) Close() error { return rt.shutdown(false) }

// Kill simulates a process crash for the chaos harness: nothing is sent from
// here on, and the shared WAL is aborted FIRST (queued group commits across
// every group must fail — and fail their client wakeups — rather than make
// the crashed state durable), then every group is closed, the scheduler
// drained, and the transport closed. A new Runtime opened on the same data
// directory runs the real per-group recovery demux.
func (rt *Runtime) Kill() error { return rt.shutdown(true) }

// shutdown is the one teardown behind Close and Kill; it runs once. Setting
// closed silences every group's view and the process's own posts (send), and
// under the same lock the beat stops and arms no more. A tick already running
// may still post: before the scheduler closes its broadcast sends nothing
// (send), and after it enqueue rejects the post. crash aborts the WAL before
// the groups drain instead of syncing it closed after them.
func (rt *Runtime) shutdown(crash bool) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	if rt.clock != nil {
		rt.clock.Stop()
	}
	tr := rt.tr
	rt.mu.Unlock()
	var firstErr error
	if crash && rt.log != nil {
		firstErr = rt.log.Abort()
	}
	for _, r := range rt.groups {
		r.Close()
	}
	rt.io.Close()
	if !crash && rt.log != nil {
		firstErr = rt.log.Close()
	}
	if tr != nil {
		if err := tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Route implements smr.Backend: the replica hosting key's group.
func (rt *Runtime) Route(key string) *smr.Replica {
	return rt.groups[rt.router.Group(key)]
}

// ID implements smr.Backend: the process id every group shares.
func (rt *Runtime) ID() consensus.ProcessID { return rt.cfg.ID }

// Leader implements smr.Backend: the process's Ω estimate, which the session
// protocol hands to clients as a proposer-locality hint (the OHAI line).
func (rt *Runtime) Leader() consensus.ProcessID { return rt.leaders.Leader() }

// TransportStats reports the bound transport's counters (zero before
// BindTransport): the STATS command and cmd/kv's periodic stats line.
func (rt *Runtime) TransportStats() transport.Stats {
	rt.mu.Lock()
	tr := rt.tr
	rt.mu.Unlock()
	if tr != nil {
		return tr.Stats()
	}
	return transport.Stats{}
}

// StatsLine implements smr.Backend: the shared transport's counters (the
// wire is per-process, not per-group) prefixed with the group count. With
// leases enabled the per-group lease counters are summed into one suffix
// (lease_groups_held counts groups whose lease this process holds right
// now); pre-lease consumers parse the unchanged prefix.
func (rt *Runtime) StatsLine() string {
	line := fmt.Sprintf("STATS groups=%d %s", len(rt.groups), rt.TransportStats())
	var agg smr.LeaseStats
	held := 0
	for _, r := range rt.groups {
		ls := r.LeaseStats()
		if !ls.Enabled {
			continue
		}
		agg.Enabled = true
		if ls.Valid {
			held++
		}
		agg.Hits += ls.Hits
		agg.Misses += ls.Misses
		agg.Expired += ls.Expired
		agg.Revoked += ls.Revoked
		agg.Grants += ls.Grants
		agg.Refused += ls.Refused
		agg.Fenced += ls.Fenced
	}
	if agg.Enabled {
		agg.Valid = held > 0
		agg.Holder = -1 // not meaningful summed across groups
		line += fmt.Sprintf(" lease_groups_held=%d %s", held, agg.String())
	}
	return line
}

// GroupLeaders returns the per-group leaseholder hint — where each group's
// GETLs are expected to be servable locally. Grants are only proposed by the
// stable Ω leader and Ω is one fact per process: its estimate, once per group.
func (rt *Runtime) GroupLeaders() []consensus.ProcessID {
	out := make([]consensus.ProcessID, len(rt.groups))
	leader := rt.Leader()
	for g := range out {
		out[g] = leader
	}
	return out
}

// InfoLine implements smr.Backend.
func (rt *Runtime) InfoLine() string { return "INFO " + rt.Info().String() }

// Info is the runtime's operational summary: process-wide aggregates plus
// one entry per group, in group order.
type Info struct {
	Groups    int               `json:"groups"`
	Applied   int               `json:"applied"`   // sum over groups
	OpenSlots int               `json:"openSlots"` // sum over groups
	Durable   bool              `json:"durable"`
	Wal       wal.Stats         `json:"wal,omitempty"` // shared WAL
	PerGroup  []smr.ReplicaInfo `json:"perGroup"`
}

// Info collects the runtime summary.
func (rt *Runtime) Info() Info {
	info := Info{Groups: len(rt.groups), Durable: rt.log != nil}
	if rt.log != nil {
		info.Wal = rt.log.Stats()
	}
	for _, r := range rt.groups {
		gi := r.Info()
		info.Applied += gi.Applied
		info.OpenSlots += gi.OpenSlots
		info.PerGroup = append(info.PerGroup, gi)
	}
	return info
}

// String renders the info as the single key=value line INFO serves: the
// aggregates, the shared WAL, then per-group applied/open-slot counts.
func (i Info) String() string {
	s := fmt.Sprintf("groups=%d applied=%d open_slots=%d durable=%t",
		i.Groups, i.Applied, i.OpenSlots, i.Durable)
	if i.Durable {
		s += fmt.Sprintf(" wal_segments=%d wal_bytes=%d wal_next=%d wal_syncs=%d",
			i.Wal.Segments, i.Wal.Bytes, i.Wal.NextIndex, i.Wal.Syncs)
	}
	for g, gi := range i.PerGroup {
		s += fmt.Sprintf(" g%d_applied=%d g%d_open=%d g%d_retained=%d g%d_retained_bytes=%d",
			g, gi.Applied, g, gi.OpenSlots, g, gi.Retained, g, gi.RetainedBytes)
		if gi.Lease != nil {
			s += fmt.Sprintf(" g%d_lease_holder=%d g%d_lease_valid=%t",
				g, gi.Lease.Holder, g, gi.Lease.Valid)
		}
	}
	return s
}

// Put routes key to its group and replicates the write.
func (rt *Runtime) Put(ctx context.Context, key, val string) error {
	return rt.Route(key).Put(ctx, key, val)
}

// Delete routes key to its group and replicates the delete.
func (rt *Runtime) Delete(ctx context.Context, key string) error {
	return rt.Route(key).Delete(ctx, key)
}

// Get reads key from its group's local applied state.
func (rt *Runtime) Get(key string) (string, bool) {
	return rt.Route(key).Get(key)
}

// GetLinearizable reads key through its group's consensus log.
func (rt *Runtime) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	return rt.Route(key).GetLinearizable(ctx, key)
}
