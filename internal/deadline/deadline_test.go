package deadline

import (
	"container/heap"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeSource is a wake source the test drives: each arm is recorded, in
// order, and wait returns only when the test calls wake.
type fakeSource struct {
	arms  chan time.Duration
	wakes chan struct{}
}

func (f *fakeSource) arm(d time.Duration) { f.arms <- d }
func (f *fakeSource) wait()               { <-f.wakes }

// fakeClock is the scheduler's clock, moved only by the test.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) read() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) set(now int64) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

type harness struct {
	t     *testing.T
	clock *fakeClock
	src   *fakeSource
	s     *scheduler
}

func newHarness(t *testing.T) *harness {
	clock := &fakeClock{now: 1000}
	// arms has room for every arming a test makes before it reads them, so
	// that arm, called under the scheduler's lock, never blocks.
	src := &fakeSource{arms: make(chan time.Duration, 64), wakes: make(chan struct{})}
	return &harness{t: t, clock: clock, src: src, s: &scheduler{now: clock.read, src: src}}
}

// expectArm receives the source's next arming and checks it: the wake it
// asks for lies d from the clock's reading.
func (h *harness) expectArm(d time.Duration) {
	h.t.Helper()
	if got := <-h.src.arms; got != d {
		h.t.Fatalf("source armed %v from now, want %v", got, d)
	}
}

// wakeAt moves the clock to now and wakes the serving goroutine, then waits
// until it has served the wake: it armed the source again (want, when not
// 0), or it exited on an empty heap (want 0).
func (h *harness) wakeAt(now int64, want time.Duration) {
	h.t.Helper()
	h.clock.set(now)
	h.src.wakes <- struct{}{}
	if want == 0 {
		h.s.serving.Wait()
		return
	}
	h.expectArm(want)
}

func (h *harness) noArm() {
	h.t.Helper()
	select {
	case d := <-h.src.arms:
		h.t.Fatalf("source armed %v, want no arming", d)
	default:
	}
}

// fired receives what timers fired, in their channel order, without waiting.
func fired(ts ...*Timer) []int {
	var out []int
	for i, t := range ts {
		select {
		case <-t.C:
			out = append(out, i)
		default:
		}
	}
	return out
}

func TestPopsInDueOrderFIFOOnTies(t *testing.T) {
	// One due time per wake: the fires come in due order, not arming order.
	h := newHarness(t)
	order := make(chan string, 3)
	// Each arming waits for the source's answer, so that the first one has
	// started the serving goroutine before the next.
	for _, e := range []struct {
		name string
		d    time.Duration
		arm  time.Duration // the source's re-arm; 0: none, "b" is later than "a"
	}{{"c", 30, 30}, {"a", 10, 10}, {"b", 20, 0}} {
		h.s.start(e.d, func() { order <- e.name })
		if e.arm != 0 {
			h.expectArm(e.arm)
		}
	}
	h.noArm()
	for i, want := range []string{"a", "b", "c"} {
		next := time.Duration(10)
		if i == 2 {
			next = 0
		}
		h.wakeAt(int64(1010+10*i), next)
		if got := <-order; got != want {
			t.Fatalf("fire %d is %q, want %q", i, got, want)
		}
	}

	// Within one pass serve pops the heap's head each time: due time first,
	// then arming order among equal due times.
	h = newHarness(t)
	h.s.start(50, nil)
	h.expectArm(50)
	for _, d := range []time.Duration{40, 50, 40, 50} {
		h.s.start(d, nil)
	}
	h.expectArm(40)
	h.s.mu.Lock()
	var got []uint64
	for h.s.heap.Len() > 0 {
		got = append(got, heap.Pop(&h.s.heap).(*Timer).seq)
	}
	h.s.mu.Unlock()
	if want := []uint64{2, 4, 1, 3, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("popped arming order %v, want %v", got, want)
	}
	h.wakeAt(1040, 0)
}

func TestNeverFiresBeforeDue(t *testing.T) {
	h := newHarness(t)
	a := h.s.start(100, nil)
	h.expectArm(100)
	b := h.s.start(100, nil)
	// A wake that comes early fires nothing and arms the rest of the way.
	h.wakeAt(1040, 60)
	if got := fired(a, b); len(got) != 0 {
		t.Fatalf("fired %v at 40 of 100", got)
	}
	h.wakeAt(1099, 1)
	if got := fired(a, b); len(got) != 0 {
		t.Fatalf("fired %v at 99 of 100", got)
	}
	h.wakeAt(1100, 0)
	if got := fired(a, b); len(got) != 2 {
		t.Fatalf("fired %v at 100, want both", got)
	}
}

func TestEarlierArmRearmsSource(t *testing.T) {
	h := newHarness(t)
	late := h.s.start(time.Second, nil)
	h.expectArm(time.Second)
	// A later deadline leaves the pending wake alone; an earlier one re-arms.
	h.s.start(2*time.Second, nil).Stop()
	h.noArm()
	early := h.s.start(5, nil)
	h.expectArm(5)
	h.wakeAt(1005, time.Second-5)
	if got := fired(early, late); len(got) != 1 || got[0] != 0 {
		t.Fatalf("fired %v at 5, want the early timer alone", got)
	}
	// Reset to earlier than the pending wake re-arms it too.
	late.Reset(1)
	h.expectArm(1)
	h.wakeAt(1006, 0)
	if got := fired(early, late); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v, want the reset timer", got)
	}
}

func TestGoroutineExitsWhenHeapEmpty(t *testing.T) {
	h := newHarness(t)
	a := h.s.start(10, nil)
	h.expectArm(10)
	if !a.Stop() {
		t.Fatal("Stop of an armed timer = false")
	}
	// The source still holds the wake: the goroutine waits it out, finds
	// nothing, and exits without arming again.
	h.wakeAt(1010, 0)
	h.noArm()
	h.s.mu.Lock()
	running := h.s.running
	h.s.mu.Unlock()
	if running {
		t.Fatal("scheduler still running with an empty heap")
	}
	// The next deadline starts it again.
	b := h.s.start(5, nil)
	h.expectArm(5)
	h.wakeAt(1015, 0)
	if len(fired(b)) != 1 {
		t.Fatal("timer armed after a restart did not fire")
	}
}

// TestStopResetSemantics pins Stop's and Reset's results and what C then
// holds, on the fake source.
func TestStopResetSemantics(t *testing.T) {
	h := newHarness(t)
	a := h.s.start(10, nil)
	h.expectArm(10)
	h.wakeAt(1010, 0)
	// Fired, value not received: Stop reports it stopped a pending value
	// and drains it, so no stale value is received afterwards.
	if !a.Stop() {
		t.Fatal("Stop of a fired, unreceived timer = false")
	}
	if len(fired(a)) != 0 {
		t.Fatal("a value survived Stop")
	}
	if a.Stop() {
		t.Fatal("second Stop = true")
	}
	// Reset after a fire whose value was received reports false and fires again.
	if a.Reset(5) {
		t.Fatal("Reset of a stopped timer = true")
	}
	h.expectArm(5)
	h.wakeAt(1015, 0)
	<-a.C
	if a.Reset(5) {
		t.Fatal("Reset after a received fire = true")
	}
	h.expectArm(5)
	if !a.Reset(7) {
		t.Fatal("Reset of an armed timer = false")
	}
	h.noArm() // 7 from now is later than the pending wake
	h.wakeAt(1020, 2)
	h.wakeAt(1022, 0)
	if len(fired(a)) != 1 {
		t.Fatal("reset timer did not fire once")
	}
	// AfterFunc: Stop before the fire cancels f.
	ran := make(chan struct{}, 1)
	f := h.s.start(5, func() { ran <- struct{}{} })
	h.expectArm(5)
	if !f.Stop() {
		t.Fatal("Stop of a pending AfterFunc = false")
	}
	h.wakeAt(1030, 0)
	select {
	case <-ran:
		t.Fatal("stopped AfterFunc ran")
	default:
	}
}

// TestConcurrentTimers arms, resets and stops timers of the process
// scheduler from several goroutines at once: every timer left armed fires
// exactly once, and a stopped AfterFunc never runs. Run it with -race.
func TestConcurrentTimers(t *testing.T) {
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				d := time.Duration((w*rounds+i)%50) * time.Microsecond
				tm := NewTimer(time.Hour)
				if i%3 == 0 && !tm.Stop() {
					t.Error("Stop of an armed timer = false")
					return
				}
				tm.Reset(d)
				<-tm.C
				ran := make(chan struct{}, 2)
				f := AfterFunc(time.Hour, func() { ran <- struct{}{} })
				if i%2 == 0 {
					f.Stop()
					continue
				}
				f.Reset(d)
				<-ran
				select {
				case <-ran:
					t.Error("AfterFunc ran twice")
					return
				case <-tm.C:
					t.Error("a fired timer fired again")
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}
