// Package cluster is the one in-process assembly of the stack cmd/kv
// ships: N processes, each a shard.Runtime over one shared WAL and one
// fsync scheduler, on one fabric of swappable endpoints, optionally fronted
// by the session servers. The chaos campaign, T7, examples/kvstore and
// smr's own suites all boot it, so their verdicts describe the
// configuration that serves traffic — see docs/TESTING.md.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/consensus"
	"repro/internal/transport"
	"repro/internal/wan"
)

// Fabric is n endpoints on one delivery fabric — the in-process Mesh, or
// loopback TCP on ephemeral ports — that outlive whatever is attached to
// them: a transport's Close is a no-op and its handler is swappable, so a
// crash-restarted process (or F10's fresh driver per sample) comes back
// behind the same endpoint, like a listener reopening on the same port.
type Fabric struct {
	mesh  *transport.Mesh  // nil on TCP
	tcps  []*transport.TCP // nil on Mesh
	slots []*endpoint
	delay transport.FaultFunc // the topology's standing Mesh delays, nil without one
}

// endpoint is one slot's transport plus the handler currently behind it.
type endpoint struct {
	transport.Transport

	mu sync.Mutex
	h  transport.Handler
}

// Close keeps the endpoint open for the slot's next tenant; the fabric
// closes the real transport.
func (*endpoint) Close() error { return nil }

func (e *endpoint) handle(from consensus.ProcessID, msg consensus.Message) {
	e.mu.Lock()
	h := e.h
	e.mu.Unlock()
	if h != nil {
		h(from, msg)
	}
}

// NewFabric builds n endpoints with nothing attached: loopback TCP framed
// with codec, or the Mesh when codec is nil. Every link carries topo's
// one-way delay times scale (the zero Topology adds none).
func NewFabric(n int, codec *consensus.Codec, topo wan.Topology, scale float64) (*Fabric, error) {
	f := &Fabric{slots: make([]*endpoint, n)}
	for i := range f.slots {
		f.slots[i] = &endpoint{}
	}
	if codec == nil {
		f.mesh = transport.NewMesh(n)
		if topo.N() > 0 {
			f.delay = topo.MeshFault(scale)
			f.mesh.SetFault(f.delay)
		}
		for i, e := range f.slots {
			tr, err := f.mesh.Endpoint(consensus.ProcessID(i), e.handle)
			if err != nil {
				f.Close()
				return nil, err
			}
			e.Transport = tr
		}
		return f, nil
	}
	addrs := make(map[consensus.ProcessID]string, n)
	for i := 0; i < n; i++ {
		addrs[consensus.ProcessID(i)] = "127.0.0.1:0"
	}
	for i, e := range f.slots {
		tr, err := transport.NewTCPWithOptions(consensus.ProcessID(i), addrs, codec, e.handle,
			transport.TCPOptions{LinkDelay: topo.TCPLinkDelay(consensus.ProcessID(i), scale)})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: endpoint %d: %w", i, err)
		}
		f.tcps = append(f.tcps, tr)
		e.Transport = tr
	}
	// Everyone bound to :0; publish the real addresses.
	for i, tr := range f.tcps {
		for j, peer := range f.tcps {
			if i != j {
				tr.SetPeerAddr(consensus.ProcessID(j), peer.Addr())
			}
		}
	}
	return f, nil
}

// Transport returns slot i's transport, for BindTransport.
func (f *Fabric) Transport(i int) transport.Transport { return f.slots[i] }

// Attach puts h behind slot i; nil detaches, and messages arriving for an
// empty slot are dropped like frames sent to a dead process.
func (f *Fabric) Attach(i int, h transport.Handler) {
	e := f.slots[i]
	e.mu.Lock()
	e.h = h
	e.mu.Unlock()
}

// SetFault installs a fault injector over the topology's delays (nil heals
// back to distance alone). Only the Mesh can inject faults.
func (f *Fabric) SetFault(fault transport.FaultFunc) {
	if f.mesh == nil {
		panic("cluster: fault injection needs the Mesh fabric")
	}
	switch {
	case fault == nil:
		f.mesh.SetFault(f.delay)
	case f.delay == nil:
		f.mesh.SetFault(fault)
	default:
		f.mesh.SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
			v := fault(from, to)
			if !v.Drop {
				v.Delay += f.delay(from, to).Delay
			}
			return v
		})
	}
}

// Stats is the fabric-wide counter view.
func (f *Fabric) Stats() transport.Stats {
	if f.mesh != nil {
		return f.mesh.Stats()
	}
	var s transport.Stats
	for _, tr := range f.tcps {
		s = s.Merge(tr.Stats())
	}
	return s
}

// Close tears the fabric down; call it after whatever is attached closed.
func (f *Fabric) Close() {
	if f.mesh != nil {
		f.mesh.Close()
	}
	for _, tr := range f.tcps {
		tr.Close()
	}
}
