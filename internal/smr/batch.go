package smr

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/deadline"
	"repro/internal/smr/slotlog"
)

// batcher accumulates commands and replicates them as a single OpBatch
// command in one consensus instance — the standard throughput amplifier for
// SMR (many client operations per protocol round trip). It sits strictly
// above the replica: the consensus layer sees one value per slot either way.
//
// One flusher goroutine launches chunks; the log step that applies a chunk's
// slot resolves it and wakes its riders. A command finding the batcher idle
// is launched at once. What arrives while a chunk's local stage runs — its
// journal fsync and the hand-off of its Propose to the transport — forms
// the next chunk, and how many chunks may then be in consensus together is
// pipelineDepth of two durations measured on every chunk. Where a commit is
// local work (loopback: fsyncs and CPU) the depth is 1 and the window is
// the whole in-flight commit, the classic group-commit heuristic; where it
// is mostly distance, chunks overlap and a proposer is not held to one
// batch per round trip. Until a chunk has committed, it assumes distance.
type batcher struct {
	replica *Replica
	maxSize int

	mu       sync.Mutex
	pending  []Command
	waiters  []chan error
	flushing bool // the flusher goroutine is running
	closed   bool
	// inflight holds the launch times of the chunks in consensus, oldest
	// first.
	inflight []time.Time
	// away counts riders the last resolved chunks released that have not
	// submitted again since: this batcher's own imminent load in a closed
	// loop. Arrivals count it down and every take forgets the rest.
	away int
	// released is when they were released.
	released time.Time
	// commit and stage are the smoothed C (launch → applied) and S (launch →
	// the chunk's outbox entry processed) that set the depth; lastCommit is
	// the C of the chunk resolved last, which sets the beat.
	commit, stage, lastCommit time.Duration
	// held is the flusher's time spent holding chunks back for company.
	held time.Duration

	batches    uint64 // consensus instances submitted
	cmds       uint64 // commands carried by them
	overlapped uint64 // instances submitted while another was in flight

	// poke wakes the flusher out of a wait: a chunk resolved, a gather's
	// early end was reached, the batcher closed. Capacity 1: the flusher
	// re-checks its condition, so tokens coalesce.
	poke chan struct{}

	// wg accounts the flusher and the chunks in flight. Every Add happens
	// under mu alongside the closed check, so close() — which sets closed
	// under mu and then waits — either sees the Add or prevents the spawn; a
	// flusher that slipped in after close would otherwise touch a replica
	// being torn down.
	wg sync.WaitGroup
}

// maxChunk caps the commands one batch carries.
const maxChunk = 64

// BatchStats is the batcher's counter surface (expvar, benchmark/).
type BatchStats struct {
	Batches uint64 `json:"batches"`
	Cmds    uint64 `json:"cmds"`
	// Overlapped counts the batches launched while another was in flight.
	Overlapped uint64 `json:"overlapped"`
	// Depth is how many batches may be in flight at once right now.
	Depth int `json:"depth"`
	// Held is the time the flusher spent holding chunks back for company
	// (beat and stretch, see gatherLocked), summed over every chunk.
	Held time.Duration `json:"held_ns"`
}

// BatchStats reports the batcher's counters.
func (r *Replica) BatchStats() BatchStats {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	return BatchStats{
		Batches: b.batches, Cmds: b.cmds,
		Overlapped: b.overlapped, Depth: pipelineDepth(b.commit, b.stage),
		Held: b.held,
	}
}

// maxDepth caps the chunks one proposer keeps in consensus at once.
const maxDepth = 8

// pipelineDepth is how many chunks may be in consensus at once, from the
// smoothed time a chunk takes to commit (launch → applied) and the part of
// it that is this process's own work (launch → journal committed and
// Propose handed to the transport). A ratio, not a window: a commit that is
// a handful of local stages long (loopback) is best amortised by batching
// everything behind it, and overlapping there only halves the batches; one
// that is mostly waiting on distance amortises nothing while it waits.
// Before the first commit sample it is maxDepth: taking loopback for distance
// costs a cold burst a round trip, distance for loopback a few small chunks
// overlapping a first commit of about a millisecond. A commit sample implies
// a stage sample (the outbox runs a chunk's stage callback before its
// verdict, and smooth never leaves a sampled average at 0).
func pipelineDepth(commit, stage time.Duration) int {
	if commit <= 0 {
		return maxDepth
	}
	d := commit / (4 * stage)
	if d < 1 {
		return 1
	}
	if d > maxDepth {
		return maxDepth
	}
	return int(d)
}

// smooth folds sample x into the moving average *avg (weight 1/8; the first
// sample seeds it). Unsmoothed, one loopback chunk in ten sees a commit
// eight times its stage by chance. A sample counts as at least 1 ns: 0 means
// "not measured yet".
func smooth(avg *time.Duration, x time.Duration) {
	x = max(x, 1)
	if *avg == 0 {
		*avg = x
		return
	}
	*avg += (x - *avg) / 8
}

// executeBatched enqueues cmd and blocks until its batch is decided and
// applied, or ctx is done — the command stays queued or proposed and may
// still commit afterwards, and the other riders of its chunk are not
// failed by it. The flush never runs on the submitting goroutine: the
// caller must stay free to return at its own deadline.
func (b *batcher) executeBatched(ctx context.Context, cmd Command) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.pending = append(b.pending, cmd)
	ch := make(chan error, 1)
	b.waiters = append(b.waiters, ch)
	back := false
	if b.away > 0 {
		b.away--
		back = b.away == 0
	}
	if !b.flushing {
		b.flushing = true
		b.wg.Add(1)
		go b.flushLoop()
	} else if back || len(b.pending) == b.maxSize {
		b.pokeFlusher() // what a gather may be waiting for
	}
	b.mu.Unlock()

	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return fmt.Errorf("smr batch execute: %w", ctx.Err())
	}
}

func (b *batcher) pokeFlusher() {
	select {
	case b.poke <- struct{}{}:
	default:
	}
}

// chunk is one launch: up to maxSize commands and their riders.
type chunk struct {
	cmds     []Command
	waiters  []chan error
	launched time.Time
	// sent is closed when the chunk's local stage is over: its journal
	// records committed, its Propose handed to the transport.
	sent chan struct{}
}

// flushLoop launches the queue in maxSize chunks until it is empty, then
// parks (flushing = false).
func (b *batcher) flushLoop() {
	defer b.wg.Done()
	var prev chan struct{} // the previous launch's sent
	for {
		c := b.nextChunk(prev)
		if c == nil {
			return
		}
		b.launch(c)
		prev = c.sent
	}
}

// nextChunk blocks until a chunk may be launched and detaches it, up to
// maxSize commands; when the queue is empty (or the batcher closed) it
// parks the batcher instead (flushing = false) and returns nil. A chunk
// may be launched once the window has room for it, the gather is over,
// and the previous launch's local stage (prev) is too — so what arrives
// during that stage shares the next fsync and the next slot.
func (b *batcher) nextChunk(prev chan struct{}) *chunk {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.takeableLocked() && len(b.inflight) >= pipelineDepth(b.commit, b.stage) {
		b.waitLocked(nil)
	}
	if hold, stretch := b.gatherLocked(); stretch > 0 {
		start := time.Now()
		b.holdLocked(hold, false)
		b.holdLocked(stretch-hold, true)
		b.held += time.Since(start)
	}
	if prev != nil && b.takeableLocked() {
		// Usually over already: the gather ran beside it.
		b.mu.Unlock()
		<-prev
		b.mu.Lock()
	}
	if !b.takeableLocked() {
		b.flushing = false
		return nil
	}
	n := len(b.pending)
	if n > b.maxSize {
		n = b.maxSize
	}
	c := &chunk{cmds: b.pending[:n:n], waiters: b.waiters[:n:n], launched: time.Now(), sent: make(chan struct{})}
	b.pending = b.pending[n:]
	b.waiters = b.waiters[n:]
	b.away = 0
	b.batches++
	b.cmds += uint64(n)
	if len(b.inflight) > 0 {
		b.overlapped++
	}
	b.inflight = append(b.inflight, c.launched)
	b.wg.Add(1) // the chunk, until resolve
	return c
}

// gatherLocked returns how long the flusher should still hold the next
// chunk back for company: for hold whatever happens, and up to stretch in
// all while the cohort the chunks resolved last released is away. The riders
// just released are this batcher's own future load, and behind a chunk in
// flight every straggler would otherwise launch a chunk of one: a beat lets
// the next chunk carry them all. Without it the population splits into ever
// smaller cohorts that never re-merge. The beat is a quarter of the commit
// just paid, capped at 1 ms, so it never dominates the cycle: it runs from
// the release, or from now behind a chunk in flight. Waking a full cohort
// and hearing back from it takes longer than that, so where 1 ms is little —
// a commit of 32 ms and more, which is distance — a released cohort is
// waited for, not timed: no blind hold, however few of its riders are still
// missing, and a stretch of up to 1/32 of a commit that ends when the cohort
// is back (cohortAwayLocked). Once the cohort's chunk has left, what arrives
// is its stragglers, and they are held a beat behind it as on loopback, so
// that they leave together; the next release waits for their chunk. On
// loopback the blind beat stays, because where several cohorts share a
// batcher it is also what lets the other cohort's stragglers in. Before the
// first commit the beat is the cap: a cold burst arrives one writer at a
// time, and each would fill the window with a chunk of one. A full chunk
// does not wait, and on loopback neither does a small idle population
// (away <= 2, nothing in flight): for it the delay costs more latency than
// the one fsync it could merge.
func (b *batcher) gatherLocked() (hold, stretch time.Duration) {
	if !b.gatherableLocked() {
		return 0, 0
	}
	beat := time.Millisecond
	if b.lastCommit > 0 && b.lastCommit/4 < beat {
		beat = b.lastCommit / 4
	}
	if b.lastCommit/32 > beat && !b.tookSinceReleaseLocked() {
		return 0, max(b.lastCommit/32-time.Since(b.released), 0)
	}
	if b.away > 2 {
		hold = beat - time.Since(b.released)
	}
	if len(b.inflight) > 0 && hold < beat {
		hold = beat
	}
	hold = max(hold, 0)
	return hold, hold
}

// holdLocked holds the next chunk back for d, or until it is full; with
// untilBack, also only while the cohort is away.
func (b *batcher) holdLocked(d time.Duration, untilBack bool) {
	if d <= 0 {
		return
	}
	timer := deadline.NewTimer(d)
	defer timer.Stop()
	for b.gatherableLocked() && (!untilBack || b.cohortAwayLocked()) && b.waitLocked(timer.C) {
	}
}

// cohortAwayLocked reports whether part of the cohort the chunk resolved
// last released is still away: a rider it released has not submitted again,
// or a chunk launched less than half a commit after it — closer behind it
// than ahead of it — is still in consensus. That chunk carries the cohort's
// stragglers (late riders held a beat, or a cold burst's second chunk, which
// the cold beat launches a millisecond or two after the first), or a cohort
// that split from it and drifted with the commits' jitter. A released cohort
// that left without it would stay split from it for good; one that waits a
// stretch for it closes the gap by up to 1/32 of a commit each round, until
// the two launch together.
func (b *batcher) cohortAwayLocked() bool {
	if b.away > 0 {
		return true
	}
	launched := b.released.Add(-b.lastCommit) // of the chunk resolved last
	return len(b.inflight) > 0 && b.inflight[0].Sub(launched) < b.lastCommit/2
}

// tookSinceReleaseLocked reports whether a chunk was launched since the last
// release: what arrives now arrived after its cohort left.
func (b *batcher) tookSinceReleaseLocked() bool {
	return len(b.inflight) > 0 && b.inflight[len(b.inflight)-1].After(b.released)
}

// gatherableLocked reports whether the next chunk could still grow.
func (b *batcher) gatherableLocked() bool {
	return b.takeableLocked() && len(b.pending) < b.maxSize
}

// takeableLocked reports whether there is anything to launch.
func (b *batcher) takeableLocked() bool { return len(b.pending) > 0 && !b.closed }

// waitLocked releases b.mu until the flusher is poked or timeout fires
// (false). A nil timeout never fires.
func (b *batcher) waitLocked(timeout <-chan time.Time) bool {
	b.mu.Unlock()
	defer b.mu.Lock()
	select {
	case <-b.poke:
		return true
	case <-timeout:
		return false
	}
}

// launch proposes one chunk; the step that applies its slot — or refuses,
// or closes it — resolves it. A single command skips the OpBatch wrapper
// entirely, so an uncontended submit replicates the command itself.
// Proposing here, on the flusher, is what puts chunks into slots in launch
// order.
func (b *batcher) launch(c *chunk) {
	err := b.replica.propose(c.cmds, func(v slotlog.Verdict) { b.resolve(c, verdictErr(v)) }, func() { b.staged(c) })
	if err != nil {
		close(c.sent)
		b.resolve(c, err)
	}
}

// staged ends c's local stage: its journal records are committed and its
// Propose handed to the transport.
func (b *batcher) staged(c *chunk) {
	b.mu.Lock()
	smooth(&b.stage, time.Since(c.launched))
	b.mu.Unlock()
	close(c.sent)
}

// resolve retires a chunk from the window and distributes its outcome to
// its riders — in that order, so a rider that submits again at once is
// counted as back.
func (b *batcher) resolve(c *chunk, err error) {
	defer b.wg.Done()
	b.mu.Lock()
	for i, at := range b.inflight {
		if at.Equal(c.launched) {
			b.inflight = append(b.inflight[:i], b.inflight[i+1:]...)
			break
		}
	}
	if err == nil {
		b.released = time.Now()
		b.lastCommit = b.released.Sub(c.launched)
		smooth(&b.commit, b.lastCommit)
		b.away += len(c.cmds)
	}
	b.pokeFlusher()
	b.mu.Unlock()
	for _, ch := range c.waiters {
		ch <- err
	}
}

// close fails the queued waiters and waits for the flusher and every chunk
// in flight; those report their own outcome (the replica is marked closed
// before close is called, so they fail fast). Waiting outside b.mu is
// essential: the goroutines waited for take the lock to detach a chunk,
// park or retire, and must not deadlock against their own reaper.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	for _, ch := range b.waiters {
		ch <- ErrClosed
	}
	b.pending, b.waiters = nil, nil
	b.pokeFlusher()
	b.mu.Unlock()
	b.wg.Wait()
}
