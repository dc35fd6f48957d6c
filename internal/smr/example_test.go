package smr_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// Example boots a three-process key-value store on the in-process mesh —
// internal/cluster, the assembly cmd/kv ships, one consensus group per
// process — and performs a replicated write followed by a linearizable read
// through a different proxy.
func Example() {
	c, err := cluster.New(cluster.Options{N: 3, F: 1, E: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	writer := c.Runtime(0).Group(0)
	if err := writer.Put(ctx, "venue", "Huatulco"); err != nil {
		panic(err)
	}
	reader := c.Runtime(2).Group(0)
	v, ok, err := reader.GetLinearizable(ctx, "venue")
	if err != nil {
		panic(err)
	}
	fmt.Printf("venue=%s ok=%v\n", v, ok)
	// Output:
	// venue=Huatulco ok=true
}
