package main

import "testing"

// One lost write and one stale read, planted by hand, must both be counted;
// a write that may have applied excuses either outcome.
func TestLedgerCountsLostWriteAndStaleRead(t *testing.T) {
	l := newLedger(1)
	replica := map[string]string{}
	read := func(key string) (string, bool) { v, ok := replica[key]; return v, ok }
	for k := 0; k < 3; k++ {
		seq, val := l.next(k)
		l.ack(k, seq)
		replica[l.keys[k]] = val
	}
	if got := l.lost(read); got != 0 {
		t.Fatalf("clean state: lost = %d, want 0", got)
	}

	// Key 0: sequence 2 is acknowledged but never reaches the replica.
	seq, _ := l.next(0)
	l.ack(0, seq)
	// Key 1: sequence 2 fails ambiguously; the replica may hold 1 or 2.
	seq, val := l.next(1)
	l.ambiguous(1, seq)
	if got := l.lost(read); got != 1 {
		t.Errorf("lost = %d, want 1 (key 0 only; key 1's old value is allowed)", got)
	}
	replica[l.keys[1]] = val
	if got := l.lost(read); got != 1 {
		t.Errorf("lost = %d, want 1 (key 1's maybe-applied value is allowed too)", got)
	}
	// A replica that lost the key entirely is also wrong.
	delete(replica, l.keys[2])
	if got := l.lost(read); got != 2 {
		t.Errorf("lost = %d, want 2 (key 2 is missing)", got)
	}

	// Key 1 again: sequence 3 is acknowledged after the ambiguous 2. A
	// replica still on 2 has lost an acknowledged write.
	seq, val = l.next(1)
	l.ack(1, seq)
	if got := l.lost(read); got != 3 {
		t.Errorf("lost = %d, want 3 (a maybe-applied value below the highest ack excuses nothing)", got)
	}
	replica[l.keys[1]] = val
	if got := l.lost(read); got != 2 {
		t.Errorf("lost = %d, want 2 (key 1 caught up)", got)
	}

	// A GETL issued after sequence 2 of key 0 was acked returns sequence 1.
	floor := l.readFloor(0)
	l.checkRead(floor, value(2), true)
	if got := l.staleReads(); got != 0 {
		t.Fatalf("fresh read counted stale: %d", got)
	}
	l.checkRead(floor, value(1), true)
	l.checkRead(floor, "", false) // a missing key is older than anything acked
	l.checkRead(floor, "garbage", true)
	if got := l.staleReads(); got != 3 {
		t.Errorf("stale = %d, want 3", got)
	}
}
