// Fixture for the iolock analyzer: no transport Send, WAL fsync or snapshot
// file save while a mutex is held, whether the lock is taken in the function
// or implied by the *Locked naming convention.
package fixture

import (
	"sync"

	"repro/internal/consensus"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

type replica struct {
	mu  sync.Mutex
	tr  transport.Transport
	wal *wal.WAL
	out []consensus.Message
}

func (r *replica) sendUnderLock(m consensus.Message) {
	r.mu.Lock()
	_ = r.tr.Send(1, m) // want "transport Transport.Send while a mutex is held"
	r.mu.Unlock()
}

func (r *replica) sendAfterUnlock(m consensus.Message) {
	r.mu.Lock()
	tr := r.tr
	r.mu.Unlock()
	_ = tr.Send(1, m) // off the lock: fine
}

func (r *replica) sendUnderDeferredUnlock(m consensus.Message) {
	r.mu.Lock()
	defer r.mu.Unlock() // deferred: the lock is held to the end of the body
	_ = r.tr.Send(1, m) // want "transport Transport.Send while a mutex is held"
}

func (r *replica) fsyncUnderLock(payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _ = r.wal.Append(payload)         // want "WAL fsync \\(Append\\) while a mutex is held"
	_ = r.wal.Sync()                     // want "WAL fsync \\(Sync\\) while a mutex is held"
	_ = r.wal.Commit(1)                  // want "WAL fsync \\(Commit\\) while a mutex is held"
	_, _ = r.wal.AppendBuffered(payload) // stages bytes only, no fsync: fine
}

// appendLocked never touches r.mu itself — by the *Locked convention the
// caller holds it, so the fsync is still in a critical section.
func (r *replica) appendLocked(payload []byte) {
	_, _ = r.wal.Append(payload) // want "WAL fsync \\(Append\\) while a mutex is held"
}

// saveLocked writes a snapshot file — write, fsync, rename, directory
// fsync — in the caller's critical section.
func (r *replica) saveLocked(dir string, payload []byte) error {
	return storage.Save(dir, 1, payload) // want "snapshot save \\(storage.Save\\) while a mutex is held"
}

func (r *replica) saveAfterUnlock(dir string, payload []byte) error {
	r.mu.Lock()
	r.out = nil
	r.mu.Unlock()
	return storage.Save(dir, 1, payload) // off the lock: fine
}

func (r *replica) snapshotCutLocked(payload []byte) {
	//lint:allow iolock deliberate: the cut must be atomic with the state it captures
	_, _ = r.wal.Append(payload)
}

// The closure runs later (timer, goroutine), not under the lock that was
// held when it was built — it gets a fresh unheld context.
func (r *replica) scheduleLocked(m consensus.Message) func() {
	return func() {
		_ = r.tr.Send(1, m) // fine
	}
}

type notTransport struct{}

func (notTransport) Send(int) error { return nil }

func (r *replica) otherSendUnderLock(nt notTransport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = nt.Send(1) // not a transport: fine
}
