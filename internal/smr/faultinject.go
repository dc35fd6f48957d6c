package smr

// Fault-injection surface for the chaos harness (internal/chaos): a
// crash-simulating shutdown that takes the real recovery path on restart,
// and a deliberately broken read path that proves the harness's
// linearizability checker has teeth.

// Kill simulates a process crash: the WAL is closed WITHOUT the final sync
// (uncommitted buffered records are abandoned, as a power cut would
// abandon them), no further messages or client acks leave the replica, and
// every outstanding client call fails. Kill blocks until the I/O consumer
// has exited, so when it returns the replica is externally silent — the
// deterministic shutdown barrier the chaos nemesis schedules around. A new
// replica opened on the same data directory then runs the real
// crash-recovery path.
//
// Contrast with Close, which syncs the WAL on the way down (graceful
// shutdown must be durable).
func (r *Replica) Kill() error { return r.shutdown(true) }

// FaultInjectStaleReads deliberately breaks the replica's read path: once
// enabled, Get (and therefore GetLinearizable through this replica)
// returns the previously overwritten value of any key that has been
// overwritten. The chaos suite's "teeth" test flips this on and asserts
// the linearizability checker rejects the resulting history — proving a
// passing verdict means something. Never enable outside tests.
func (r *Replica) FaultInjectStaleReads() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faultStale = true
	if r.faultPrev == nil {
		r.faultPrev = make(map[string]string)
	}
}
