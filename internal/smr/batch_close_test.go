package smr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/transport"
)

// MaxBatchDepth exposes the pipelining cap to the external batch tests.
const MaxBatchDepth = maxDepth

// BatchQueued reports how many commands wait to be launched. It lives in a
// _test file, so only the tests see it: the external batch tests wait on
// the queue with it instead of sleeping.
func (r *Replica) BatchQueued() int {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// BatchInflight reports how many chunks are in consensus.
func (r *Replica) BatchInflight() int {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.inflight)
}

// PipelineBatches makes the batcher believe a commit is almost all
// distance, which puts it at MaxBatchDepth without a WAN to measure. Real
// samples only move the local stage (down) until a chunk commits.
func (r *Replica) PipelineBatches() {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	b.commit, b.stage, b.lastCommit = time.Minute, time.Millisecond, time.Minute
}

// SerialBatches makes the batcher believe a commit is a millisecond of
// loopback work and its local stage an hour, which holds it at depth 1 for
// the next hundred-odd chunks whatever they measure: a test's one-chunk
// window stays one chunk even when a sample reads loopback as distance.
func (r *Replica) SerialBatches() {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	b.commit, b.stage, b.lastCommit = time.Millisecond, time.Hour, time.Millisecond
}

// The depth rule: overlap only when a commit is many local stages long, and
// before anything committed, assume it is.
func TestPipelineDepth(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name          string
		commit, stage time.Duration
		want          int
	}{
		{"loopback under load", ms(3.8), ms(1.0), 1},
		{"loopback idle", ms(1.2), ms(0.3), 1},
		{"put-wan", ms(80), ms(1.1), maxDepth},
		{"nothing measured", 0, 0, maxDepth},
		{"no commit sample", 0, ms(1.1), maxDepth},
		{"regional", ms(15), ms(1.0), 3},
		{"exactly two", ms(8), ms(1.0), 2},
		{"just under two", ms(7.9), ms(1.0), 1},
	} {
		if got := pipelineDepth(tc.commit, tc.stage); got != tc.want {
			t.Errorf("%s: pipelineDepth(%v, %v) = %d, want %d", tc.name, tc.commit, tc.stage, got, tc.want)
		}
	}
	// A commit sample implies a stage sample (launch takes the stage first),
	// and a sample too short for the clock still counts: pipelineDepth never
	// divides by a stage of 0.
	var stage time.Duration
	smooth(&stage, 0)
	if stage <= 0 {
		t.Fatalf("a stage sample of 0 left the average at %v: unmeasured", stage)
	}
	smooth(&stage, 0)
	if got := pipelineDepth(ms(80), stage); got != maxDepth {
		t.Errorf("pipelineDepth(80ms, %v) = %d, want %d", stage, got, maxDepth)
	}
}

// The smoothing holds the depth at 1 through a loopback commit that by
// chance took eight stages, and follows a real change of regime.
func TestPipelineDepthSmoothing(t *testing.T) {
	commit, stage := time.Duration(0), time.Duration(0)
	for i := 0; i < 20; i++ {
		smooth(&commit, 3800*time.Microsecond)
		smooth(&stage, time.Millisecond)
	}
	smooth(&commit, 9*time.Millisecond) // one outlier
	if d := pipelineDepth(commit, stage); d != 1 {
		t.Fatalf("one slow commit moved the depth to %d", d)
	}
	for i := 0; i < 40; i++ {
		smooth(&commit, 80*time.Millisecond)
	}
	if d := pipelineDepth(commit, stage); d != maxDepth {
		t.Fatalf("depth %d after 40 WAN commits, want %d", d, maxDepth)
	}
}

// The gather rule: a blind beat on loopback and behind a chunk in flight, and
// over distance, where 1/32 of a commit exceeds the beat, no blind hold for a
// released cohort — however few of its riders are missing — only a stretch
// while some are; a rider back after its cohort's chunk left is held a beat
// behind it. Before the first commit the beat is its 1 ms cap.
func TestGatherRule(t *testing.T) {
	const ms = time.Millisecond
	near := func(got, want time.Duration) bool { return got <= want && got > want-200*time.Microsecond }
	for _, tc := range []struct {
		name                    string
		commit                  time.Duration
		pending, away, inflight int
		// took: the newest chunk in flight was launched since the release.
		took          bool
		sinceRelease  time.Duration
		hold, stretch time.Duration
	}{
		{"idle, two alternating writers", 3800 * time.Microsecond, 1, 2, 0, false, 0, 0, 0},
		{"loopback cohort released", 3800 * time.Microsecond, 1, 18, 0, false, 0, 950 * time.Microsecond, 950 * time.Microsecond},
		{"open loop, arrival after an idle gap", 3800 * time.Microsecond, 1, 5, 0, false, 5 * ms, 0, 0},
		{"put-wan cohort released", 80 * ms, 1, 31, 0, false, 0, 0, 2500 * time.Microsecond},
		{"put-wan cohort, a straggler chunk in flight", 80 * ms, 1, 31, 1, false, 0, 0, 2500 * time.Microsecond},
		{"put-wan late rider", 80 * ms, 1, 3, 0, false, 2 * ms, 0, 500 * time.Microsecond},
		{"put-wan cohort, its last rider away", 80 * ms, 31, 1, 0, false, 0, 0, 2500 * time.Microsecond},
		{"put-wan rider back after its cohort's chunk left", 80 * ms, 1, 0, 1, true, 3 * ms, ms, ms},
		{"loopback straggler behind a chunk in flight", 3800 * time.Microsecond, 1, 0, 1, true, time.Minute, 950 * time.Microsecond, 950 * time.Microsecond},
		{"a full chunk queued", 80 * ms, 64, 31, 1, false, 0, 0, 0},
		{"nothing measured yet", 0, 1, 31, 1, false, 0, ms, ms},
		{"a cold batcher's first write", 0, 1, 0, 0, false, 0, 0, 0},
	} {
		b := &batcher{maxSize: 64, lastCommit: tc.commit, away: tc.away}
		b.pending = make([]Command, tc.pending)
		b.released = time.Now().Add(-tc.sinceRelease)
		for i := 0; i < tc.inflight; i++ {
			b.inflight = append(b.inflight, b.released.Add(-time.Millisecond))
		}
		if tc.took {
			b.inflight[len(b.inflight)-1] = b.released.Add(time.Microsecond)
		}
		hold, stretch := b.gatherLocked()
		if !near(hold, tc.hold) || !near(stretch, tc.stretch) {
			t.Errorf("%s: hold %v stretching to %v, want %v stretching to %v", tc.name, hold, stretch, tc.hold, tc.stretch)
		}
	}
}

// The cohort a chunk released is away while one of its riders is, or while a
// chunk launched less than half a commit after it — its stragglers, or a
// cohort split from it — is still in consensus; a chunk launched later is
// nearer the next release than this one.
func TestCohortAway(t *testing.T) {
	const ms = time.Millisecond
	released := time.Now()
	launched := released.Add(-80 * ms) // the chunk resolved last
	for _, tc := range []struct {
		name     string
		away     int
		inflight []time.Duration // launched this long after it
		want     bool
	}{
		{"every rider back, nothing in flight", 0, nil, false},
		{"a rider away", 1, nil, true},
		{"its stragglers' chunk in flight", 0, []time.Duration{ms}, true},
		{"a split cohort's chunk in flight", 0, []time.Duration{7 * ms}, true},
		{"the chunk ahead of it in flight", 0, []time.Duration{60 * ms}, false},
	} {
		b := &batcher{away: tc.away, released: released, lastCommit: 80 * ms}
		for _, d := range tc.inflight {
			b.inflight = append(b.inflight, launched.Add(d))
		}
		if got := b.cohortAwayLocked(); got != tc.want {
			t.Errorf("%s: cohortAwayLocked() = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// TestBatcherCloseWaitsForFlushers pins the golifecycle fix: close must not
// return while the flusher or any chunk's goroutine is still running,
// because the caller (Replica.Close, then its host) proceeds to tear down
// the WAL and transport they would then touch. Before the fix, close
// returned immediately and the flusher kept running into the teardown.
func TestBatcherCloseWaitsForFlushers(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%t", pipelined), func(t *testing.T) {
			// A mesh no peer listens on, so no quorum: every launched chunk
			// stays in consensus until Close.
			mesh := transport.NewMesh(3)
			defer mesh.Close()
			tr, err := mesh.Endpoint(0, func(consensus.ProcessID, consensus.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			io := NewIOScheduler(nil, 1)
			defer io.Close()
			r, _, err := NewReplica(consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}, time.Millisecond, io, FixedLeaders{}, tr, ReplicaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const maxSize, riders = 4, 14
			b := r.batch
			b.maxSize = maxSize
			wantInflight := 1
			if pipelined {
				r.PipelineBatches()
				wantInflight = (riders + maxSize - 1) / maxSize
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel() // this submitter gives up immediately; its chunk stays
			if err := r.Submit(ctx, Command{Op: OpNoop, ID: "probe"}); !errors.Is(err, context.Canceled) {
				t.Fatalf("Submit = %v, want context.Canceled", err)
			}
			outcomes := make(chan error, riders)
			for i := 0; i < riders; i++ {
				go func(i int) {
					outcomes <- r.Submit(context.Background(), Command{Op: OpNoop, ID: fmt.Sprintf("rider-%d", i)})
				}(i)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if n := r.BatchInflight(); n >= wantInflight && n+r.BatchQueued() > 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d chunks in flight, want %d", r.BatchInflight(), wantInflight)
				}
			}

			r.Close()
			b.mu.Lock()
			flushing, inflight := b.flushing, len(b.inflight)
			b.mu.Unlock()
			if flushing || inflight != 0 {
				t.Fatalf("Close returned with flusher running = %t and %d chunks in flight", flushing, inflight)
			}
			// Every rider gets its outcome, queued or launched (a second one
			// would have blocked its chunk's goroutine, and Close with it).
			for i := 0; i < riders; i++ {
				select {
				case err := <-outcomes:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("rider outcome = %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("rider %d of %d never got an outcome", i, riders)
				}
			}

			// Closed batcher rejects new work without spawning anything.
			if err := r.Submit(context.Background(), Command{Op: OpNoop, ID: "late"}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Submit after close = %v, want ErrClosed", err)
			}
		})
	}
}
