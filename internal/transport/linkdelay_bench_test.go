package transport_test

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// BenchmarkLinkDelay is the LinkDelay shim's own error: one frame at a time
// between two loopback TCP endpoints over a 37.5 ms injected one-way delay,
// and late_us/frame is how much later than send + delay a frame arrives.
// The writer holds each frame on a Go timer, and on a mostly idle process
// such a timer fires late (the runtime's netpoller sleeps in whole
// milliseconds), so the figure is that lateness plus one loopback hop: what
// every injected WAN hop adds that a real link would not. Run with
//
//	go test -run=NONE -bench BenchmarkLinkDelay -benchtime=40x ./internal/transport
func BenchmarkLinkDelay(b *testing.B) {
	const delay = 37500 * time.Microsecond
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := transport.NewTCPWithOptions(0, addrs, codec, func(consensus.ProcessID, consensus.Message) {},
		transport.TCPOptions{LinkDelay: func(consensus.ProcessID) time.Duration { return delay }})
	if err != nil {
		b.Fatal(err)
	}
	defer t0.Close()
	arrived := make(chan time.Time, 1)
	t1, err := transport.NewTCP(1, addrs, codec, func(consensus.ProcessID, consensus.Message) { arrived <- time.Now() })
	if err != nil {
		b.Fatal(err)
	}
	defer t1.Close()
	t0.SetPeerAddr(1, t1.Addr())

	msg := &core.DecideMsg{Value: consensus.IntValue(1)}
	send := func() time.Duration {
		start := time.Now()
		if err := t0.Send(1, msg); err != nil {
			b.Fatal(err)
		}
		return (<-arrived).Sub(start) - delay
	}
	send() // the dial, off the clock
	var late time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		late += send()
	}
	b.ReportMetric(float64(late.Microseconds())/float64(b.N), "late_us/frame")
}
