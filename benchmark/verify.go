package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// ledger is the verifier's bookkeeping. Every key has one writer, which
// writes the key's sequence numbers 1, 2, 3, … as zero-padded 16-byte
// values, so what a key must hold at the end — and what a read may not go
// below — follows from what was acknowledged.
type ledger struct {
	keys []string
	// acked[k] is the highest sequence of key k whose PUT was acknowledged.
	// Written by the key's writer only; read by any reader.
	acked []atomic.Int64
	// issued[k] is the last sequence the writer sent; only the writer
	// touches it.
	issued []int64

	mu sync.Mutex
	// maybe[k] lists sequences whose PUT failed without a definite
	// rejection (ErrMaybeApplied): the key may end on one of them, unless
	// a later sequence was acknowledged.
	maybe map[int][]int64
	stale int64 // GETLs that returned less than was acked before they were issued
}

func newLedger(conns int) *ledger {
	n := conns * keysPerConn
	l := &ledger{
		keys:   make([]string, n),
		acked:  make([]atomic.Int64, n),
		issued: make([]int64, n),
		maybe:  make(map[int][]int64),
	}
	for c := 0; c < conns; c++ {
		for i := 0; i < keysPerConn; i++ {
			l.keys[c*keysPerConn+i] = fmt.Sprintf("c%d-k%d", c, i)
		}
	}
	return l
}

func value(seq int64) string { return fmt.Sprintf("%016d", seq) }

// next returns the value of key k's next write. Only k's writer calls it.
func (l *ledger) next(k int) (seq int64, val string) {
	l.issued[k]++
	return l.issued[k], value(l.issued[k])
}

func (l *ledger) ack(k int, seq int64) { l.acked[k].Store(seq) }

func (l *ledger) ambiguous(k int, seq int64) {
	l.mu.Lock()
	l.maybe[k] = append(l.maybe[k], seq)
	l.mu.Unlock()
}

// readFloor is taken before a GETL of key k is issued; checkRead then
// counts the read as stale if it returned an older sequence. found=false is
// a missing key, which is older than anything.
func (l *ledger) readFloor(k int) int64 { return l.acked[k].Load() }

func (l *ledger) checkRead(floor int64, val string, found bool) {
	seq := int64(0)
	if found {
		var err error
		if seq, err = strconv.ParseInt(val, 10, 64); err != nil {
			seq = -1 // not a value any writer wrote
		}
	}
	if seq < floor {
		l.mu.Lock()
		l.stale++
		l.mu.Unlock()
	}
}

// lost counts the keys on which read — one replica's state at the end of
// the run — lacks an acknowledged write: the key must hold its highest
// acked sequence, or a later sequence whose write may have applied.
func (l *ledger) lost(read func(key string) (string, bool)) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	wrong := 0
	for k, key := range l.keys {
		want := l.acked[k].Load()
		if want == 0 && len(l.maybe[k]) == 0 {
			continue // never written
		}
		val, found := read(key)
		ok := !found && want == 0
		if got, err := strconv.ParseInt(val, 10, 64); found && err == nil {
			ok = got == want
			for _, m := range l.maybe[k] {
				ok = ok || (got == m && m > want)
			}
		}
		if !ok {
			wrong++
		}
	}
	return wrong
}

// staleReads returns the count of stale GETLs seen so far.
func (l *ledger) staleReads() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stale
}
