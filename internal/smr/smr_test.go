package smr_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/smr"
	"repro/internal/transport"
)

// startCluster boots n replicas over an in-process mesh.
func startCluster(t testing.TB, n, f, e int) ([]*smr.Replica, func()) {
	t.Helper()
	replicas, _, cleanup := startMeshCluster(t, n, f, e)
	return replicas, cleanup
}

// startMeshCluster is startCluster for tests that inject faults: it also
// hands back the mesh.
func startMeshCluster(t testing.TB, n, f, e int) ([]*smr.Replica, *transport.Mesh, func()) {
	t.Helper()
	mesh := transport.NewMesh(n)
	replicas := make([]*smr.Replica, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		r, err := smr.NewReplica(cfg, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := mesh.Endpoint(cfg.ID, r.Handle)
		if err != nil {
			t.Fatal(err)
		}
		r.BindTransport(tr)
		replicas[i] = r
	}
	for _, r := range replicas {
		r.Start()
	}
	cleanup := func() {
		for _, r := range replicas {
			r.Close()
		}
		mesh.Close()
	}
	return replicas, mesh, cleanup
}

func TestNewReplicaRejectsBadInput(t *testing.T) {
	good := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	for _, tc := range []struct {
		name string
		cfg  consensus.Config
		tick time.Duration
	}{
		{"invalid quorum config", consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10, FastSize: 1, RecoverySize: 1}, time.Millisecond},
		{"tick 0", good, 0},
		{"tick < 0", good, -time.Millisecond},
	} {
		if r, err := smr.NewReplica(tc.cfg, tc.tick); err == nil {
			r.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
	r, err := smr.NewReplica(good, time.Millisecond)
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	r.Close()
}

func TestKVPutGet(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 2)
	defer cleanup()

	kv := smr.NewKV(replicas[0])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := kv.Put(ctx, "city", "huatulco"); err != nil {
		t.Fatal(err)
	}
	if got, ok := kv.Get("city"); !ok || got != "huatulco" {
		t.Fatalf("Get(city) = %q ok=%v", got, ok)
	}
	if err := kv.Put(ctx, "city", "madrid"); err != nil {
		t.Fatal(err)
	}
	if got, _ := kv.Get("city"); got != "madrid" {
		t.Fatalf("Get(city) = %q after overwrite", got)
	}
	if err := kv.Delete(ctx, "city"); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("city"); ok {
		t.Fatal("key survives deletion")
	}
}

func TestConcurrentProxiesConvergeOnOneLog(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 1)
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const perProxy = 5
	var wg sync.WaitGroup
	errs := make(chan error, len(replicas)*perProxy)
	for i, r := range replicas {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv := smr.NewKV(r)
			for j := 0; j < perProxy; j++ {
				key := fmt.Sprintf("k%d-%d", i, j)
				if err := kv.Put(ctx, key, fmt.Sprintf("v%d", j)); err != nil {
					errs <- fmt.Errorf("proxy %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each of the 25 commands wins exactly one slot, so every replica must
	// eventually apply 25 contiguous slots.
	want := len(replicas) * perProxy
	deadline := time.Now().Add(10 * time.Second)
	for i, r := range replicas {
		for r.Applied() < want {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at %d/%d applied", i, r.Applied(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Logs must agree slot by slot.
	for slot := 0; slot < want; slot++ {
		v0, ok := replicas[0].LogValue(slot)
		if !ok {
			t.Fatalf("replica 0 missing slot %d", slot)
		}
		for i, r := range replicas {
			if v, ok := r.LogValue(slot); ok && v != v0 {
				t.Fatalf("replica %d slot %d: %v != %v", i, slot, v, v0)
			}
		}
	}
	// All written keys visible on proxy 0 after it applied everything.
	for i := range replicas {
		for j := 0; j < perProxy; j++ {
			key := fmt.Sprintf("k%d-%d", i, j)
			if _, ok := replicas[0].Get(key); !ok {
				t.Errorf("key %s missing from replica 0 store", key)
			}
		}
	}
}

func TestGetLinearizableSeesOtherProxiesWrites(t *testing.T) {
	replicas, cleanup := startCluster(t, 5, 2, 2)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	writer := smr.NewKV(replicas[1])
	reader := smr.NewKV(replicas[4])

	if err := writer.Put(ctx, "x", "1"); err != nil {
		t.Fatal(err)
	}
	// A linearizable read through any proxy must observe the acknowledged
	// write, no matter how far behind the proxy's applied state is.
	got, ok, err := reader.GetLinearizable(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got != "1" {
		t.Fatalf("GetLinearizable = %q ok=%v, want \"1\"", got, ok)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmd := smr.Command{ID: "p1-7", Op: smr.OpPut, Key: "a", Val: "b"}
	v, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := smr.DecodeCommand(v)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cmd) {
		t.Fatalf("round trip: %+v != %+v", got, cmd)
	}
	if v.IsNone() || v.Key <= 0 {
		t.Fatalf("encoded ordering key %d must be positive", v.Key)
	}
}
