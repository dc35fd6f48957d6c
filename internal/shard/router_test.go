package shard

import (
	"fmt"
	"testing"
)

// Golden FNV-1a assignments. These constants are the cross-process
// determinism contract: a router built in any process, on any
// architecture, at any time must produce exactly these groups, or keys
// written by one process would be looked up in the wrong group by the
// next. If this test ever fails, the hash changed — which is a data-loss
// event for existing deployments, not a refactor.
var hashGolden = []struct {
	key     string
	hash    uint64
	g4, g16 int
}{
	{"", 14695981039346656037, 1, 5},
	{"a", 12638187200555641996, 0, 12},
	{"b", 12638190499090526629, 1, 5},
	{"alpha", 9999721509958787115, 3, 11},
	{"user:1001", 5312262665563488470, 2, 6},
	{"user:1002", 5312261566051860259, 3, 3},
	{"k-0", 4383272481634059855, 3, 15},
	{"k-1", 4383271382122431644, 0, 12},
	{"k-2", 4383274680657316277, 1, 5},
	{"k-3", 4383273581145688066, 2, 2},
	{"k-42", 16722895478352542147, 3, 3},
	{"\x01ctl", 15888628532292840197, 1, 5},
	{"with space", 3432753902736173735, 3, 7},
	{"tab\tkey", 10694657974509953254, 2, 6},
	{"héllo", 11772399666002542816, 0, 0},
}

func TestHashRouterGolden(t *testing.T) {
	r4 := NewHashRouter(4)
	r16 := NewHashRouter(16)
	for _, g := range hashGolden {
		if h := fnv64a(g.key); h != g.hash {
			t.Errorf("fnv64a(%q) = %d, want %d", g.key, h, g.hash)
		}
		if got := r4.Group(g.key); got != g.g4 {
			t.Errorf("HashRouter(4).Group(%q) = %d, want %d", g.key, got, g.g4)
		}
		if got := r16.Group(g.key); got != g.g16 {
			t.Errorf("HashRouter(16).Group(%q) = %d, want %d", g.key, got, g.g16)
		}
	}
}

// TestHashRouterDeterminismAcrossInstances models a restart/peer process:
// two independently built routers must agree on every key, including keys
// the wire protocol would reject (empty, whitespace, control bytes) — the
// router is total even when validation upstream refuses the key.
func TestHashRouterDeterminismAcrossInstances(t *testing.T) {
	edge := []string{
		"", " ", "  ", "\t", "\n", "\r\n", "\x00", "\x7f", "\x01\x02\x03",
		"plain", "with space", "tab\tin\tkey", "trailing ", " leading",
		"ünïcødé-ключ-鍵", string(make([]byte, 1024)),
	}
	for i := 0; i < 1000; i++ {
		edge = append(edge, fmt.Sprintf("user:%d", i))
	}
	for _, n := range []int{1, 2, 3, 4, 16, 64} {
		a, b := NewHashRouter(n), NewHashRouter(n)
		if a.Groups() != n {
			t.Fatalf("Groups() = %d, want %d", a.Groups(), n)
		}
		for _, k := range edge {
			ga, gb := a.Group(k), b.Group(k)
			if ga != gb {
				t.Fatalf("n=%d key=%q: instance disagreement %d vs %d", n, k, ga, gb)
			}
			if ga < 0 || ga >= n {
				t.Fatalf("n=%d key=%q: group %d out of range", n, k, ga)
			}
		}
	}
}

// TestHashRouterSpread sanity-checks that a uniform key population does not
// collapse onto a few groups (a broken hash routes everything to group 0
// and "scales" to nothing).
func TestHashRouterSpread(t *testing.T) {
	const n, keys = 8, 8000
	r := NewHashRouter(n)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.Group(fmt.Sprintf("key-%d", i))]++
	}
	want := keys / n
	for g, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("group %d holds %d of %d keys (expected ~%d): hash is badly skewed", g, c, keys, want)
		}
	}
}

func TestHashRouterDegenerate(t *testing.T) {
	r := NewHashRouter(0)
	if r.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", r.Groups())
	}
	if g := r.Group("anything"); g != 0 {
		t.Fatalf("Group = %d, want 0", g)
	}
}
