// Fixture for the determinism analyzer's host-timer tier (internal/smr,
// internal/shard, internal/transport): every timer there is a deadline of
// the process's scheduler, so each Go timer constructor is flagged — the
// context constructors that start one for a deadline too.
package fixture

import (
	"context"
	"errors"
	"time"
)

func hold(d time.Duration, f func()) {
	t := time.NewTimer(d) // want "time.NewTimer in .*: a Go timer here bypasses the process's deadline scheduler"
	defer t.Stop()
	time.AfterFunc(d, f)    // want "time.AfterFunc in .*deadline scheduler"
	tk := time.NewTicker(d) // want "time.NewTicker in .*deadline scheduler"
	defer tk.Stop()
	select {
	case <-time.After(d): // want "time.After in .*deadline scheduler"
	case <-time.Tick(d): // want "time.Tick in .*deadline scheduler"
	case <-t.C:
	}
}

func bounded(parent context.Context, d time.Duration) {
	cause := errors.New("late")
	at := time.Unix(0, 0).Add(d)
	ctx, cancel := context.WithTimeout(parent, d) // want "context.WithTimeout in .*: its deadline is a Go timer that bypasses the process's deadline scheduler"
	defer cancel()
	ctx, cancel = context.WithDeadline(ctx, at) // want "context.WithDeadline in .*deadline scheduler"
	defer cancel()
	ctx, cancel = context.WithTimeoutCause(ctx, d, cause) // want "context.WithTimeoutCause in .*deadline scheduler"
	defer cancel()
	_, cancel = context.WithDeadlineCause(ctx, at, cause) // want "context.WithDeadlineCause in .*deadline scheduler"
	defer cancel()
}
