package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/smr"
)

// TestKillRestartReconverges crash-kills a process mid-stream on each
// fabric, keeps writing through the survivors' server, reboots the victim
// from its data directory behind the same endpoint, and requires the
// cluster to reconverge on every acknowledged key.
func TestKillRestartReconverges(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		tcp := tcp
		t.Run(fmt.Sprintf("tcp=%t", tcp), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{
				N: 3, F: 1, E: 1, Groups: 2, TCP: tcp,
				Dir: t.TempDir(), Servers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sc, err := smr.NewSessionClient(c.Addrs()[:1], smr.SessionOptions{Timeout: 10 * time.Second, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()

			var keys []string
			put := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					k := fmt.Sprintf("k%d", i)
					if err := sc.Put(k, "v"+k); err != nil {
						t.Fatalf("put %s: %v", k, err)
					}
					keys = append(keys, k)
				}
			}
			put(0, 8)
			c.Kill(2)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			if err := c.Runtime(2).Put(ctx, "dead", "x"); err == nil {
				t.Fatal("killed process accepted a write")
			}
			cancel()
			put(8, 16)
			if err := c.Restart(2); err != nil {
				t.Fatal(err)
			}
			recs, _ := c.Runtime(2).Recovery()
			recovered := false
			for _, r := range recs {
				recovered = recovered || r.Recovered
			}
			if !recovered {
				t.Fatal("restarted process recovered nothing from its data directory")
			}
			put(16, 20)
			if err := c.WaitConverged(keys, 20*time.Second); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if v, ok := c.Runtime(2).Get(k); !ok || v != "v"+k {
					t.Fatalf("restarted process has %s=%q,%t", k, v, ok)
				}
			}
		})
	}
}

// TestCrashRecoversBatchedWrites crashes every process after a burst of
// concurrent writes that the batcher provably grouped into OpBatch slots,
// and reboots them all: recovery has nothing but the shared WALs, so every
// acknowledged write must come back out of a journaled batch, and the
// rebooted cluster must keep serving batches on top of them.
func TestCrashRecoversBatchedWrites(t *testing.T) {
	const n, writers, rounds = 3, 8, 5
	c, err := cluster.New(cluster.Options{N: n, F: 1, E: 1, Dir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	burst := func(tag string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := c.Runtime(0).Put(ctx, fmt.Sprintf("%s-%d-%d", tag, w, r), tag); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s burst: %v", tag, err)
		}
	}
	burst("pre")
	if st := c.Runtime(0).Group(0).BatchStats(); st.Cmds <= st.Batches {
		t.Fatalf("%d writers formed no batch (%+v): nothing batched to recover", writers, st)
	}
	for i := 0; i < n; i++ {
		c.Kill(i)
	}
	for i := 0; i < n; i++ {
		if err := c.Restart(i); err != nil {
			t.Fatal(err)
		}
	}
	burst("post")
	for _, tag := range []string{"pre", "post"} {
		for w := 0; w < writers; w++ {
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("%s-%d-%d", tag, w, r)
				if v, ok, err := c.Runtime(0).GetLinearizable(ctx, k); err != nil || !ok || v != tag {
					t.Fatalf("%s = %q,%t,%v after the crash", k, v, ok, err)
				}
			}
		}
	}
}
