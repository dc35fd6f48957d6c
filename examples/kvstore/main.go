// Kvstore: a replicated key-value store over real TCP loopback — five
// processes of the stack cmd/kv ships (internal/cluster), running
// state-machine replication on the paper's object-mode protocol, one
// consensus instance per log slot, with two clients talking to different
// proxies.
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/smr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n, f, e = 5, 2, 2

	// Boot five processes on loopback TCP with ephemeral ports.
	c, err := cluster.New(cluster.Options{N: n, F: f, E: e, TCP: true})
	if err != nil {
		return err
	}
	defer c.Close()
	replicas := make([]*smr.Replica, n)
	for i := range replicas {
		replicas[i] = c.Runtime(i).Group(0)
		fmt.Printf("replica p%d up\n", i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Two clients, two different proxies.
	alice, bob := replicas[0], replicas[3]

	// A Put returns once its slot has applied at the proxy, and slots apply
	// in order: the proxy's applied index names the slot the write won. (The
	// decided values themselves are held only until every peer has applied
	// them — a lagging one is sent the suffix it misses — so there is no log
	// to print afterwards.)
	fmt.Println()
	for _, w := range []struct {
		who      string
		kv       *smr.Replica
		proxy    int
		key, val string
	}{
		{"alice", alice, 0, "venue", "Huatulco"},
		{"bob  ", bob, 3, "year", "2025"},
		{"alice", alice, 0, "venue", "Mexico"},
	} {
		if err := w.kv.Put(ctx, w.key, w.val); err != nil {
			return err
		}
		fmt.Printf("%s (proxy p%d): PUT %s=%s -> log slot %d\n", w.who, w.proxy, w.key, w.val, replicas[w.proxy].Applied()-1)
	}

	// Reads are local to each proxy; give replication a moment so both
	// proxies have applied all three commands, then show convergence.
	deadline := time.Now().Add(5 * time.Second)
	for replicas[0].Applied() < 3 || replicas[3].Applied() < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, c := range []struct {
		name string
		kv   *smr.Replica
	}{{"alice@p0", alice}, {"bob@p3", bob}} {
		venue, _ := c.kv.Get("venue")
		year, _ := c.kv.Get("year")
		fmt.Printf("%s sees venue=%q year=%q\n", c.name, venue, year)
	}
	return nil
}
