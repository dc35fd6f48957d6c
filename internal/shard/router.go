package shard

// HashRouter maps every key to one of a fixed number of consensus groups:
// FNV-1a over the key's bytes, modulo the group count. Routing must be a pure
// function of the key: the same key must land on the same group in every
// process and across restarts, because each group is an independent consensus
// log — a key that wandered between groups would see two unrelated histories.
// FNV-1a is defined byte-by-byte with fixed constants, so the mapping is
// identical on every architecture and in every process — the property the
// determinism tests pin with golden values.
type HashRouter struct {
	n int
}

// NewHashRouter builds a hash router over n groups (n < 1 is treated as 1:
// a degenerate router that sends everything to group 0).
func NewHashRouter(n int) HashRouter {
	if n < 1 {
		n = 1
	}
	return HashRouter{n: n}
}

// Groups returns the number of groups the router spreads keys over.
func (r HashRouter) Groups() int { return r.n }

// Group returns the group id for key, in [0, Groups()).
func (r HashRouter) Group(key string) int {
	return int(fnv64a(key) % uint64(r.n))
}

// FNV-1a 64-bit constants (FNV-0 offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a is FNV-1a inlined over a string (hash/fnv forces a []byte copy
// and an interface call per write; routing runs on every client command).
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
