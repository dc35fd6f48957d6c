package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/quorum"
	"repro/internal/smr"
)

// TestServingRuntimeBatchesAdaptively pins the serving configuration: every
// group of the runtime replica mode builds hands its writes to the batcher
// (the shipped server once ran unbatched, while the benchmark claimed to
// assemble the same stack). Unbound, no write can commit, but each is
// launched as a chunk.
func TestServingRuntimeBatchesAdaptively(t *testing.T) {
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	rt, err := newRuntime(cfg, 2, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for g := 0; g < rt.Groups(); g++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := rt.Group(g).Put(ctx, "k", "v")
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("group %d: a write with no peers returned %v", g, err)
		}
		if st := rt.Group(g).BatchStats(); st.Batches != 1 || st.Cmds != 1 {
			t.Errorf("group %d batch stats = %+v, want the write launched as one chunk", g, st)
		}
	}
}

// TestServingRuntimeRefusesBelowTheBound: two peers at the default -f 1 -e 1
// are fewer than the 2f+1 = 3 a consensus object needs, so the process does
// not start, and says why.
func TestServingRuntimeRefusesBelowTheBound(t *testing.T) {
	cfg := consensus.Config{ID: 0, N: 2, F: 1, E: 1, Delta: 10}
	rt, err := newRuntime(cfg, 1, 5, nil, nil)
	if !errors.Is(err, quorum.ErrInfeasible) {
		if err == nil {
			rt.Close()
		}
		t.Fatalf("two peers at f=1 e=1: %v, want %v", err, quorum.ErrInfeasible)
	}
}

// TestRenderGetMatchesSentinelNotText pins the errtaxonomy fix: a missing
// key is recognised by errors.Is on the wrapped sentinel, and an unrelated
// error whose message merely contains "not found" is NOT mistaken for one
// (the old strings.Contains classification got both cases wrong).
func TestRenderGetMatchesSentinelNotText(t *testing.T) {
	cases := []struct {
		name string
		v    string
		err  error
		want string
	}{
		{"hit", "42", nil, "VAL 42"},
		{"miss", "", smr.ErrNotFound, "NONE"},
		{"wrapped miss", "", fmt.Errorf("kv get retry 3: %w", smr.ErrNotFound), "NONE"},
		{"text lookalike", "", fmt.Errorf("proxy not found in address book"), "ERR proxy not found in address book"},
	}
	for _, tc := range cases {
		if got := renderGet(tc.v, tc.err); got != tc.want {
			t.Errorf("%s: renderGet = %q, want %q", tc.name, got, tc.want)
		}
	}
}
