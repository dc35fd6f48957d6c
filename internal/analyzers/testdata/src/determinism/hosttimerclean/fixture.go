// Fixture for the determinism analyzer's host-timer tier, clean: timers on
// internal/deadline, a context cancelled by one, clock reads, goroutines, the
// global rand and map order are the host's to use.
package fixture

import (
	"context"
	"math/rand/v2"
	"time"

	"repro/internal/deadline"
)

func hold(d time.Duration, f func(), peers map[int]string) []string {
	t := deadline.NewTimer(d)
	defer t.Stop()
	deadline.AfterFunc(d, f)
	start := time.Now()
	go func() {}()
	<-t.C
	jitter := time.Duration(rand.Int64N(int64(time.Since(start)) + 1))
	t.Reset(d + jitter)
	var addrs []string
	for _, a := range peers {
		addrs = append(addrs, a)
	}
	return addrs
}

// cancelled bounds a context by a deadline of the scheduler: WithCancel
// starts no timer.
func cancelled(parent context.Context, d time.Duration) context.Context {
	ctx, cancel := context.WithCancel(parent)
	deadline.AfterFunc(d, cancel)
	return ctx
}
