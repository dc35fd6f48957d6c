//go:build go1.23

// The Go 1.23 timer semantics, which the scheduler's Timer follows, are what
// TestTimerSemanticsMatchTime compares against. The setting exists from Go
// 1.23 on; a file its build constraint leaves out has its //go:debug
// ignored, so the package's other tests build on Go 1.22 too.
//go:debug asynctimerchan=0

package deadline

import (
	"testing"
	"time"
)

// TestTimerSemanticsMatchTime runs the same steps on a time.Timer and on a
// Timer of the process scheduler and compares what Stop and Reset return and
// whether C holds a value. Each fire is awaited (a receive, or Stop after the
// due time has certainly passed), so no step races the clock.
func TestTimerSemanticsMatchTime(t *testing.T) {
	type timer interface {
		Stop() bool
		Reset(time.Duration) bool
		ch() <-chan time.Time
	}
	const tick = time.Millisecond
	run := func(tm timer) []bool {
		var out []bool
		ready := func() bool {
			select {
			case <-tm.ch():
				return true
			case <-time.After(20 * tick):
				return false
			}
		}
		out = append(out, ready())        // fires
		out = append(out, tm.Stop())      // after a received fire
		out = append(out, tm.Reset(tick)) // of a stopped timer
		time.Sleep(10 * tick)             // now fired, not received
		out = append(out, tm.Stop())      // of a fired, unreceived timer
		out = append(out, tm.Reset(time.Hour))
		out = append(out, tm.Reset(tick)) // of an armed timer
		out = append(out, ready())
		out = append(out, tm.Reset(tick))
		time.Sleep(10 * tick)
		out = append(out, tm.Reset(time.Hour)) // fired, unreceived: drained
		select {
		case <-tm.ch():
			out = append(out, true) // a stale value
		default:
			out = append(out, false)
		}
		out = append(out, tm.Stop())
		return out
	}
	want := run(goTimer{time.NewTimer(tick)})
	got := run(ourTimer{NewTimer(tick)})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: deadline %v, time.Timer %v (all: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

type goTimer struct{ *time.Timer }

func (g goTimer) ch() <-chan time.Time { return g.C }

type ourTimer struct{ *Timer }

func (o ourTimer) ch() <-chan time.Time { return o.C }
