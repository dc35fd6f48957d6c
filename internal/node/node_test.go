package node_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/omega"
	"repro/internal/transport"
	"repro/internal/wan"
)

// startMeshCluster boots n hosts over an in-process mesh, each running an Ω
// detector plus a core protocol in the given mode.
func startMeshCluster(t *testing.T, n, f, e int, mode core.Mode) ([]*node.Host, func()) {
	t.Helper()
	mesh := transport.NewMesh(n)
	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		det := omega.New(cfg, 0)
		proto := core.NewUnchecked(cfg, mode, core.DefaultOptions(), det)
		host := node.New(n, nil, time.Millisecond, det, proto)
		tr, err := mesh.Endpoint(cfg.ID, host.Handle)
		if err != nil {
			t.Fatal(err)
		}
		host.BindTransport(tr)
		hosts[i] = host
	}
	for _, h := range hosts {
		h.Start()
	}
	cleanup := func() {
		for _, h := range hosts {
			h.Close()
		}
		mesh.Close()
	}
	return hosts, cleanup
}

func TestMeshClusterDecidesLoneProposal(t *testing.T) {
	hosts, cleanup := startMeshCluster(t, 5, 2, 2, core.ModeObject)
	defer cleanup()

	hosts[3].Propose(consensus.IntValue(42))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, h := range hosts {
		v, err := h.WaitDecision(ctx)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if v != consensus.IntValue(42) {
			t.Fatalf("host %d decided %v, want v(42)", i, v)
		}
	}
}

func TestMeshClusterAgreesUnderConcurrentProposals(t *testing.T) {
	hosts, cleanup := startMeshCluster(t, 5, 2, 1, core.ModeObject)
	defer cleanup()

	for i, h := range hosts {
		h.Propose(consensus.IntValue(int64(10 + i)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first consensus.Value
	for i, h := range hosts {
		v, err := h.WaitDecision(ctx)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("host %d decided %v, host 0 decided %v", i, v, first)
		}
	}
}

func TestTCPClusterDecides(t *testing.T) {
	const n, f, e = 3, 1, 1
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	omega.RegisterMessages(codec)

	// Loopback TCP on ephemeral ports.
	fab, err := cluster.NewFabric(n, codec, wan.Topology{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: f, E: e, Delta: 10}
		det := omega.New(cfg, 0)
		proto := core.NewUnchecked(cfg, core.ModeObject, core.DefaultOptions(), det)
		hosts[i] = node.New(n, fab.Transport(i), time.Millisecond, det, proto)
		fab.Attach(i, hosts[i].Handle)
	}
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()
	for _, h := range hosts {
		h.Start()
	}

	hosts[1].Propose(consensus.IntValue(7))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, h := range hosts {
		v, err := h.WaitDecision(ctx)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if v != consensus.IntValue(7) {
			t.Fatalf("host %d decided %v", i, v)
		}
	}
}
