package deadline

import "time"

// timerSource wakes the scheduler with a time.Timer. Alone, as where no
// timerfd is to be had, it fires late on an idle process, at the netpoller's
// next whole millisecond; on Linux a timerfd armed beside it ends that sleep
// on time (source_linux.go).
type timerSource struct{ t *time.Timer }

func newTimerSource() *timerSource {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSource{t}
}

func (s *timerSource) arm(d time.Duration) { s.t.Reset(d) }

// wait may return for a wake that a later arm replaced: the scheduler fires
// only what is due.
func (s *timerSource) wait() { <-s.t.C }
