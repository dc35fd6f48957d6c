// Package deadline is the process's one deadline scheduler. Every timer of
// the live stack — a link's delayed frame, a Mesh hop, the batcher's beat, a
// replica's wake, the Ω beat, a session's timeout — is an entry in one heap,
// served by one goroutine that a wake source rouses at the heap's earliest
// deadline.
//
// The point is precision. An idle Go process sleeps in the netpoller's
// epoll_wait, which takes whole milliseconds, so there a timer fires up to a
// millisecond late (docs/PERFORMANCE.md, *Timers*). The scheduler's goroutine
// waits on one time.Timer; on Linux one timerfd, registered with the
// netpoller and armed to the same instant, ends that epoll_wait on time, so
// the runtime wakes and finds the timer due. Arming an earlier deadline is a
// timer reset and one timerfd_settime, and no goroutine holds an OS thread
// while it waits. Elsewhere the source is the time.Timer alone.
//
// The API follows *time.Timer with Go 1.23's channel semantics: after Stop or
// Reset returns, no value from before it is received from C. The scheduler
// only signals channels; AfterFunc runs f on its own goroutine, as
// time.AfterFunc does. The serving goroutine exits when the heap is empty and
// starts again with the next deadline.
package deadline

import (
	"container/heap"
	"sync"
	"time"
)

// Timer is one deadline: its expiry sends the time on C, or runs f.
type Timer struct {
	C <-chan time.Time

	c    chan time.Time // C's send side; nil for AfterFunc
	f    func()
	s    *scheduler
	when int64  // due, on the scheduler's clock, while in the heap
	seq  uint64 // arming order: FIFO among equal due times
	at   int    // index in the heap, -1 when not in it
}

// NewTimer returns a Timer that sends the current time on its channel after
// at least d.
func NewTimer(d time.Duration) *Timer { return process.start(d, nil) }

// AfterFunc waits at least d, then calls f in its own goroutine. Stop
// cancels the call if it has not started.
func AfterFunc(d time.Duration, f func()) *Timer { return process.start(d, f) }

// Now is the scheduler's clock: deadlines are durations from it.
func Now() time.Time { return time.Now() }

// Stop prevents the Timer from firing. It reports whether it stopped the
// timer: false when the timer had already fired — and, for NewTimer, its
// value was received — or had been stopped.
func (t *Timer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.stopLocked(t)
}

// Reset re-arms the Timer to fire after d, discarding a value not yet
// received. It reports what Stop would have.
func (t *Timer) Reset(d time.Duration) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	pending := t.s.stopLocked(t)
	t.s.addLocked(t, d)
	return pending
}

// source wakes the serving goroutine: arm sets the one pending wake to d
// from now, replacing any earlier arming; wait blocks until a wake. A wake
// may come early or twice: the scheduler fires only what is due.
type source interface {
	arm(d time.Duration)
	wait()
}

// scheduler is one heap of deadlines and the goroutine that serves it.
type scheduler struct {
	now func() int64 // nanoseconds on a monotonic clock
	src source

	mu      sync.Mutex
	heap    timerHeap
	seq     uint64
	armed   int64 // the source's pending wake; 0 when none is known
	running bool  // the serving goroutine is alive
	serving sync.WaitGroup
}

var epoch = time.Now()

// process is the scheduler every Timer of the program is on.
var process = &scheduler{now: func() int64 { return int64(time.Since(epoch)) }, src: newSource()}

func (s *scheduler) start(d time.Duration, f func()) *Timer {
	t := &Timer{f: f, s: s, at: -1}
	if f == nil {
		t.c = make(chan time.Time, 1)
		t.C = t.c
	}
	s.mu.Lock()
	s.addLocked(t, d)
	s.mu.Unlock()
	return t
}

// addLocked puts t in the heap, due d from now. An entry due before the
// source's pending wake re-arms it; the first entry of an empty heap starts
// the serving goroutine, which arms the source itself.
func (s *scheduler) addLocked(t *Timer, d time.Duration) {
	t.when = s.now() + int64(max(d, 0))
	s.seq++
	t.seq = s.seq
	heap.Push(&s.heap, t)
	switch {
	case !s.running:
		s.running = true
		s.serving.Add(1)
		go s.serve()
	case s.armed != 0 && t.when < s.armed:
		s.armLocked(t.when)
	}
}

// stopLocked takes t out of the heap and drains its channel, reporting
// whether it was armed or held a value not yet received.
func (s *scheduler) stopLocked(t *Timer) bool {
	pending := t.at >= 0
	if pending {
		heap.Remove(&s.heap, t.at)
	}
	if t.c != nil {
		select {
		case <-t.c:
			pending = true
		default:
		}
	}
	return pending
}

func (s *scheduler) armLocked(when int64) {
	s.armed = when
	s.src.arm(time.Duration(when - s.now()))
}

// serve fires every due entry in due order, then sleeps until the earliest
// one left; it returns when the heap is empty.
func (s *scheduler) serve() {
	defer s.serving.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		now := s.now()
		for len(s.heap) > 0 && s.heap[0].when <= now {
			t := heap.Pop(&s.heap).(*Timer)
			if t.f != nil {
				go t.f()
			} else {
				t.c <- time.Now() // cannot block: Reset and Stop drain it
			}
		}
		if len(s.heap) == 0 {
			s.running = false
			return
		}
		if s.armed == 0 || s.heap[0].when < s.armed {
			s.armLocked(s.heap[0].when)
		}
		s.mu.Unlock()
		s.src.wait()
		s.mu.Lock()
		s.armed = 0 // spent, or unknown: the loop arms the source again
	}
}

// timerHeap orders entries by due time, then by arming order.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].when < h[j].when || h[i].when == h[j].when && h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.at = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.at = -1
	return t
}
