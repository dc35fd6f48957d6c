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
	alice := smr.NewKV(replicas[0])
	bob := smr.NewKV(replicas[3])

	fmt.Println("\nalice (proxy p0): PUT venue=Huatulco")
	if err := alice.Put(ctx, "venue", "Huatulco"); err != nil {
		return err
	}
	fmt.Println("bob   (proxy p3): PUT year=2025")
	if err := bob.Put(ctx, "year", "2025"); err != nil {
		return err
	}
	fmt.Println("alice (proxy p0): PUT venue=Mexico  (overwrite)")
	if err := alice.Put(ctx, "venue", "Mexico"); err != nil {
		return err
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
		kv   *smr.KV
	}{{"alice@p0", alice}, {"bob@p3", bob}} {
		venue, _ := c.kv.Get("venue")
		year, _ := c.kv.Get("year")
		fmt.Printf("%s sees venue=%q year=%q\n", c.name, venue, year)
	}

	fmt.Printf("\nreplicated log (as applied by p0):\n")
	for slot := 0; slot < replicas[0].Applied(); slot++ {
		v, _ := replicas[0].LogValue(slot)
		cmd, err := smr.DecodeCommand(v)
		if err != nil {
			continue
		}
		fmt.Printf("  slot %d: %s %s=%s (id %s)\n", slot, cmd.Op, cmd.Key, cmd.Val, cmd.ID)
	}
	return nil
}
