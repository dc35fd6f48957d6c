package transport_test

import (
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// BenchmarkTCPLinkHeap is what one idle TCP link keeps on the heap: one
// endpoint opens links to 16 others with one frame each, and heap_B/link is
// the HeapAlloc growth across that, after runtime.GC, divided by 16. Both
// ends of each link live in the process, as in a one-process cluster: the
// sender's peer state and queue, both sockets, the receiver's read buffer.
// Goroutine stacks are not heap and are not counted. Run with
//
//	go test -run=NONE -bench BenchmarkTCPLinkHeap -benchtime=5x ./internal/transport
func BenchmarkTCPLinkHeap(b *testing.B) {
	const links = 16
	codec := testCodec()
	var total int64
	for i := 0; i < b.N; i++ {
		addrs := make(map[consensus.ProcessID]string, links+1)
		for p := 0; p <= links; p++ {
			addrs[consensus.ProcessID(p)] = "127.0.0.1:0"
		}
		arrived := make(chan struct{}, links)
		peers := make([]*transport.TCP, 0, links+1)
		for p := 0; p <= links; p++ {
			tr, err := transport.NewTCP(consensus.ProcessID(p), addrs, codec,
				func(consensus.ProcessID, consensus.Message) { arrived <- struct{}{} })
			if err != nil {
				b.Fatal(err)
			}
			peers = append(peers, tr)
		}
		sender := peers[0]
		for p := 1; p <= links; p++ {
			sender.SetPeerAddr(consensus.ProcessID(p), peers[p].Addr())
		}
		before := heapAfterGC()
		for p := 1; p <= links; p++ {
			if err := sender.Send(consensus.ProcessID(p), &core.DecideMsg{Value: consensus.IntValue(1)}); err != nil {
				b.Fatal(err)
			}
		}
		for p := 0; p < links; p++ {
			<-arrived
		}
		total += int64(heapAfterGC()) - int64(before) // signed: the heap may shrink
		for _, tr := range peers {
			tr.Close()
		}
	}
	b.ReportMetric(float64(total)/float64(b.N*links), "heap_B/link")
}

// heapAfterGC returns the live heap after two collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
