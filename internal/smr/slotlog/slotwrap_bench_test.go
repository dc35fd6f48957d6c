package slotlog

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
)

// BenchmarkSlotWrap measures wrapping an inner core message into its
// slot-addressed wire frame (inner body, SlotMessage around it, kind in
// front) — the encode path every inter-replica protocol message takes. send
// is one message to one peer; broadcast-n5 is what a proposer or acceptor at
// n=5 does with a 32-command chunk: interpret the Broadcast effect in the
// log, then frame it for the four peers. The
// inner body must be encoded once for all four.
func BenchmarkSlotWrap(b *testing.B) {
	codec := consensus.NewCodec()
	codec.MustRegister(KindSlot, func() consensus.Message { return &SlotMessage{} })

	b.Run("send", func(b *testing.B) {
		inner := &core.OneB{Ballot: 7, VBal: 3, Val: consensus.IntValue(42), Proposer: 2, Decided: consensus.None}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(wrapSlot(12345, inner)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("broadcast-n5", func(b *testing.B) {
		l := New(consensus.Config{ID: 0, N: 5, F: 2, E: 2, Delta: 10}, time.Millisecond, nil, false, 0)
		chunk := Command{ID: "p0-batch-1", Op: OpBatch}
		for i := 0; i < 32; i++ {
			chunk.Subs = append(chunk.Subs, Command{
				ID: fmt.Sprintf("p0-%d", i), Op: OpPut,
				Key: fmt.Sprintf("c0-k%03d", i), Val: fmt.Sprintf("%016d", i),
			})
		}
		val, err := chunk.Encode()
		if err != nil {
			b.Fatal(err)
		}
		effects := []consensus.Effect{consensus.Broadcast{Msg: &core.TwoB{Ballot: 0, Value: val}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.eff = Effects{}
			l.interpret(l.slot(12345), effects)
			if len(l.eff.Sends) != 4 {
				b.Fatalf("%d outbound messages, want 4", len(l.eff.Sends))
			}
			for _, o := range l.eff.Sends {
				if _, err := codec.Encode(o.Msg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
