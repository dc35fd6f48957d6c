// Fixture for the determinism analyzer's host-timer tier (internal/smr,
// internal/shard, internal/transport): every timer there is a deadline of
// the process's scheduler, so each Go timer constructor is flagged.
package fixture

import "time"

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
