package main

import (
	"fmt"
	"time"

	"repro/internal/smr"
)

// spec is one named workload: the cluster it runs on and the traffic it
// offers. Names are fixed; later issues cite them.
type spec struct {
	Name string
	Why  string
	// Cluster shape.
	N, F, E int
	Groups  int
	Leases  *smr.LeaseOptions
	WAN     string // wan preset whose first N slots host the replicas; "" = loopback, no injected delay
	// Traffic. Every connection goes to replica 0 unless PreferLeader is
	// set, in which case clients get every address and follow the
	// leaseholder hint.
	Conns, Depth int
	ReadPct      int  // share of GETL in the mix; the rest are PUTs
	PreferLeader bool // session clients re-stick to the leader / leaseholder
	OpenRate     int  // open loop: PUT/s per connection (0 = closed loop)
	Crash        bool // kill replica N-1 at 1/3 of each window, reopen it at 2/3
}

// keysPerConn is each connection's single-writer key space. It exceeds the
// deepest pipeline (256), so an open-loop issuer cycling through a
// permutation never has two writes to one key in flight.
const keysPerConn = 512

var specs = []spec{
	{
		Name: "put-sat",
		Why:  "closed loop 2 conns x depth 16, 100% PUT: saturates one proposer; codecs, batcher, Replica.mu, group commit and TCP writers do the work",
		N:    3, F: 1, E: 1, Groups: 1, Conns: 2, Depth: 16,
	},
	{
		Name: "put-serial",
		Why:  "1 conn x depth 1, 100% PUT: batch=1, about 4 fsyncs and 26 sends per op on the blocking path; isolates per-message and per-fsync cost",
		N:    3, F: 1, E: 1, Groups: 1, Conns: 1, Depth: 1,
	},
	{
		Name: "mix-lease-r90",
		Why:  "leases on, 2 conns x depth 8, 90% GETL / 10% PUT: lease hits do zero sends and zero fsyncs, so a write-path gain that costs reads shows here",
		N:    3, F: 1, E: 1, Groups: 1, Conns: 2, Depth: 8, ReadPct: 90, PreferLeader: true,
		Leases: &smr.LeaseOptions{Duration: 2 * time.Second, Epsilon: 50 * time.Millisecond, AutoGrant: true},
	},
	{
		Name: "put-shard4",
		Why:  "4 groups per process, 2 conns x depth 32, hash-routed PUTs: Mux, SharedWAL and the shared IOScheduler do the work; per-group batch dilution shows",
		N:    3, F: 1, E: 1, Groups: 4, Conns: 2, Depth: 32,
	},
	{
		Name: "put-wan",
		Why:  "n=5 f=2 e=2 on spread7's first 5 regions with real link delays, 2 conns x depth 16: distance-bound control; only quorum changes may move latency",
		N:    5, F: 2, E: 2, Groups: 1, Conns: 2, Depth: 16, WAN: "spread7",
	},
	{
		// Not one of ISSUE 11's six: put-wan and this one are the only
		// workloads whose numbers do not follow the shared host's speed, and
		// the driver needs two (README, Steadiness).
		Name: "put-wan-serial",
		Why:  "put-wan's cluster, 1 conn x depth 1: one write is one fast-quorum round trip plus the stack, with no batch to wait for; distance-bound like put-wan",
		N:    5, F: 2, E: 2, Groups: 1, Conns: 1, Depth: 1, WAN: "spread7",
	},
	{
		Name: "put-open-crash",
		Why:  "open loop at a fixed 2000 PUT/s timed from due time; replica 2 is killed at 1/3 and reopened at 2/3 of the window: WAL replay and catch-up under load",
		N:    3, F: 1, E: 1, Groups: 1, Conns: 2, Depth: 256, OpenRate: 1000, Crash: true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric with its unit and which direction is better —
// the same three facts BENCHMARK.json records.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are the ten metrics a user of the KV service would see, all
// from the untraced window. Which of them the driver gates, and by what
// bound, is BENCHMARK.json's to say (its end_to_end list); the rest are
// listed there with the per-layer metrics: reported, not gated.
var endToEndDefs = []metricDef{
	{"ops_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"failed_share", "share", "lower"},
	{"wrong_results", "count", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs are the single-layer metrics of the traced pass and the
// layer probes, layer = module name.
var perLayerDefs = []metricDef{
	{"session.frames_per_op", "count", "lower"},
	{"session.busy_rejects", "count", "lower"},
	{"session.bad_frames", "count", "lower"},
	{"session.wire_rtt_us", "us", "lower"},
	{"smr.inproc_put_us", "us", "lower"},
	{"smr.cmds_per_batch", "count", "higher"},
	{"smr.handle_busy_us_per_op", "us", "lower"},
	{"smr.handles_per_op", "count", "lower"},
	{"smr.cmd_encode_ns", "ns", "lower"},
	{"smr.cmd_decode_ns", "ns", "lower"},
	{"smr.cmd_encode_allocs", "count", "lower"},
	{"consensus.encode_ns", "ns", "lower"},
	{"consensus.decode_ns", "ns", "lower"},
	{"consensus.encode_allocs", "count", "lower"},
	{"consensus.frame_bytes", "B", "lower"},
	{"core.decide_us.n3", "us", "lower"},
	{"core.decide_us.n5", "us", "lower"},
	{"core.decide_allocs.n3", "count", "lower"},
	{"transport.sends_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"transport.drops", "count", "lower"},
	{"transport.reconnects", "count", "lower"},
	{"transport.queue_depth_max", "count", "lower"},
	{"transport.send_busy_us_per_op", "us", "lower"},
	{"transport.tcp_oneway_us", "us", "lower"},
	{"transport.mesh_oneway_us", "us", "lower"},
	{"wal.fsyncs_per_op", "count", "lower"},
	{"wal.records_per_op", "count", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.fsync_us", "us", "lower"},
	{"wal.group_fsyncs_per_rec", "count", "lower"},
	{"wal.replay_us_per_rec", "us", "lower"},
	{"storage.save_ms", "ms", "lower"},
	{"storage.load_ms", "ms", "lower"},
	{"shard.route_ns", "ns", "lower"},
	{"shard.group_imbalance", "ratio", "lower"},
	{"lease.hit_share", "share", "higher"},
	{"lease.grants", "count", "lower"},
	{"lease.refused", "count", "lower"},
	{"lease.local_read_ns", "ns", "lower"},
	{"wan.floor_ms", "ms", "lower"},
	{"wan.p50_over_floor_ms", "ms", "lower"},
	{"omega.leader_changes", "count", "lower"},
	{"recovery.replay_ms", "ms", "lower"},
	{"recovery.catchup_ms", "ms", "lower"},
	{"phase.healthy.p99_ms", "ms", "lower"},
	{"phase.down.p99_ms", "ms", "lower"},
	{"phase.rejoin.p99_ms", "ms", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
}
