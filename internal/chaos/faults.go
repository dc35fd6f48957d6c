// Package chaos is a deterministic, seed-driven nemesis harness over the
// real internal/smr stack: it runs concurrent clients against a live
// durable cluster while injecting partitions, message loss / duplication /
// delay, fsync stalls, and crash-restarts through the replicas' real
// recovery path — then verifies the merged client history with
// internal/linear and that the cluster reconverges after the faults heal.
//
// Everything the nemesis and the workload will do is derived up front from
// a single seed (the fault plan, every client's op script), so a failing
// run is reproducible from its seed alone: same seed, same schedule, same
// faults, same verdict. Per-message probabilistic sampling (loss under a
// lossy-link step) draws from a per-directed-link seeded stream, so the
// k-th send on a link sees the same draws in every run; only the per-link
// send orders remain interleaving-dependent, never the schedule.
package chaos

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/transport"
)

// faults is the live fault state consulted by the mesh on every send. The
// nemesis mutates it step by step; heal() clears everything. One instance
// is installed per cluster via cluster.Fabric.SetFault, which keeps a WAN
// topology's delays in place under it (distance is not a fault).
//
// Probabilistic sampling draws from a per-directed-link stream (seeded from
// the scenario seed and the link), not a shared rng: the k-th message on
// link a→b always sees the same three draws, no matter how the other
// links' sends interleave with it and no matter which faults happen to be
// active. That shrinks the nondeterminism left in a failing run to the
// per-link send orders themselves.
type faults struct {
	mu      sync.Mutex
	seed    int64
	streams map[[2]consensus.ProcessID]*rand.Rand
	blocked map[[2]consensus.ProcessID]bool
	loss    float64
	dup     float64
	delayP  float64
	delay   time.Duration
}

func pid(i int) consensus.ProcessID { return consensus.ProcessID(i) }

func newFaults(seed int64) *faults {
	return &faults{
		seed:    seed,
		streams: make(map[[2]consensus.ProcessID]*rand.Rand),
		blocked: make(map[[2]consensus.ProcessID]bool),
	}
}

// stream returns the directed link's private rng, created on first use.
func (f *faults) stream(from, to consensus.ProcessID) *rand.Rand {
	key := [2]consensus.ProcessID{from, to}
	rng, ok := f.streams[key]
	if !ok {
		rng = rand.New(rand.NewSource(f.seed ^ mix64(uint64(from)<<32|uint64(uint32(to)))))
		f.streams[key] = rng
	}
	return rng
}

// mix64 is the splitmix64 finalizer: it spreads the packed (from, to) pair
// over the seed space so adjacent links get unrelated streams.
func mix64(x uint64) int64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// verdict is the transport.FaultFunc for this fault set. Every call
// consumes exactly three draws from the link's stream regardless of which
// faults are active, so the stream position is always 3× the link's send
// ordinal — toggling a fault on does not reshuffle the others' sampling.
func (f *faults) verdict(from, to consensus.ProcessID) transport.FaultVerdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := f.stream(from, to)
	pLoss, pDup, pDelay := rng.Float64(), rng.Float64(), rng.Float64()
	var v transport.FaultVerdict
	if f.blocked[[2]consensus.ProcessID{from, to}] {
		return transport.FaultVerdict{Drop: true}
	}
	if f.loss > 0 && pLoss < f.loss {
		return transport.FaultVerdict{Drop: true}
	}
	if f.dup > 0 && pDup < f.dup {
		v.Duplicate = true
	}
	if f.delayP > 0 && pDelay < f.delayP {
		v.Delay += f.delay
	}
	return v
}

// blockPair cuts the directed link a→b.
func (f *faults) blockPair(a, b consensus.ProcessID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked[[2]consensus.ProcessID{a, b}] = true
}

// partition splits the cluster into groups and cuts every link that
// crosses a group boundary, both directions.
func (f *faults) partition(groups ...[]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	in := make(map[int]int)
	for g, ids := range groups {
		for _, id := range ids {
			in[id] = g
		}
	}
	for a, ga := range in {
		for b, gb := range in {
			if a != b && ga != gb {
				f.blocked[[2]consensus.ProcessID{consensus.ProcessID(a), consensus.ProcessID(b)}] = true
			}
		}
	}
}

// isolate cuts every link to and from replica i in an n-replica cluster.
func (f *faults) isolate(i, n int) {
	for p := 0; p < n; p++ {
		if p != i {
			f.blockPair(consensus.ProcessID(i), consensus.ProcessID(p))
			f.blockPair(consensus.ProcessID(p), consensus.ProcessID(i))
		}
	}
}

// setLoss drops each non-blocked message with probability p.
func (f *faults) setLoss(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loss = p
}

// setDup duplicates each delivered message with probability p.
func (f *faults) setDup(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dup = p
}

// setDelay holds each delivered message for d with probability p.
func (f *faults) setDelay(p float64, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delayP, f.delay = p, d
}

// heal clears every active fault (blocked pairs, loss, dup, delay).
func (f *faults) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked = make(map[[2]consensus.ProcessID]bool)
	f.loss, f.dup, f.delayP, f.delay = 0, 0, 0, 0
}
