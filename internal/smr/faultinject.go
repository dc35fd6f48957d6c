package smr

// Fault-injection surface for the chaos harness (internal/chaos): a
// crash-simulating shutdown that takes the real recovery path on restart,
// and a deliberately broken read path that proves the harness's
// linearizability checker has teeth.

// Kill is the group's half of a simulated process crash: no further message
// leaves the replica, every outstanding client call fails, and Kill blocks
// until the entries it had queued are through the scheduler, so when it
// returns the replica is externally silent — the deterministic shutdown
// barrier the chaos nemesis schedules around. The host aborts the WAL first
// (shard.Runtime.Kill), so queued group commits fail — and fail their
// client wakeups — rather than make the crashed state durable; a new
// runtime opened on the same data directory then runs the real
// crash-recovery path.
func (r *Replica) Kill() { r.shutdown(true) }

// FaultInjectStaleReads deliberately breaks the replica's read path: once
// enabled, Get (and therefore GetLinearizable through this replica)
// returns the previously overwritten value of any key that has been
// overwritten. The chaos suite's "teeth" test flips this on and asserts
// the linearizability checker rejects the resulting history — proving a
// passing verdict means something. Never enable outside tests.
func (r *Replica) FaultInjectStaleReads() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.injectStaleReads()
}
