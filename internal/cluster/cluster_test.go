package cluster_test

import (
	"context"
	"fmt"
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
				Dir: t.TempDir(), AdaptiveBatch: true, Servers: true,
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
