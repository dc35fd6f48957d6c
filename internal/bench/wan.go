package bench

import (
	"fmt"
	"strings"

	"repro/internal/consensus"
	"repro/internal/protocols"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/wan"
)

// WAN regenerates F3: commit latency of a lone proposer (the client's
// proxy) in a geo-replicated deployment, per proxy region and protocol, in
// milliseconds. Each protocol deploys on the first n regions of the shared
// placement for f=2, e=2:
//
//	core-object  n = 2e+f−1 = 5
//	epaxos       n = 2f+1  = 5 (e = ⌈(f+1)/2⌉ = 2)
//	paxos        n = 2f+1  = 5 (leader in region 0)
//	fastpaxos    n = 2e+f+1 = 7 (two extra regions)
//
// This is the paper's C5 claim made concrete: Fast Paxos must both run two
// more replicas and collect n−e votes out of the larger, farther-flung
// cluster, so every proxy pays for the extra regions' distance. The regions
// and RTT matrix are internal/wan's (shared with F5, F10 and cmd/plan), in
// deployment order: a protocol that needs n processes occupies the first n.
func WAN() *Result {
	const f, e = 2, 2
	nObject := quorum.ObjectMinProcesses(f, e) // 5
	nFast := quorum.LamportMinProcesses(f, e)  // 7
	nPlain := quorum.PlainMinProcesses(f)      // 5
	eEp := quorum.EPaxosFastThreshold(f)       // 2
	regions, rtt := wan.Sites()

	r := &Result{
		ID:    "F3",
		Title: fmt.Sprintf("WAN commit latency at the proxy, ms (f=%d, e=%d; regions in deployment order)", f, e),
		Header: []string{
			"proxy region",
			fmt.Sprintf("core-object (n=%d)", nObject),
			fmt.Sprintf("epaxos (n=%d)", nPlain),
			fmt.Sprintf("fastpaxos (n=%d)", nFast),
			fmt.Sprintf("paxos (n=%d, leader %s)", nPlain, regions[0]),
		},
	}
	for proxy := 0; proxy < nObject; proxy++ {
		p := consensus.ProcessID(proxy)
		r.AddRow(
			regions[proxy],
			wanLatency(rtt, protocols.CoreObjectFactory, nObject, f, e, p),
			wanLatency(rtt, protocols.EPaxosFactory(p), nPlain, f, eEp, p),
			wanLatency(rtt, protocols.FastPaxosFactory, nFast, f, e, p),
			wanLatency(rtt, protocols.PaxosFactory, nPlain, f, e, p),
		)
	}
	r.AddNote(fmt.Sprintf("Deployment order: %s | extra fastpaxos regions: %s, %s.",
		strings.Join(regions[:nObject], ", "), regions[nObject], regions[nObject+1]))
	r.AddNote("Fast path latency = RTT to the (n−e)-th closest replica of the protocol's own cluster; the two extra Fast Paxos replicas push that quorum farther for every proxy.")
	r.AddNote("Paxos pays proxy→leader forwarding plus the leader's quorum round trip, except when the proxy is the leader region itself.")
	return r
}

// wanLatency runs one lone-proposal WAN run on the first n regions of rtt
// and returns the proxy's commit latency formatted in ms.
func wanLatency(rtt [][]consensus.Duration, fac runner.Factory, n, f, e int, proxy consensus.ProcessID) string {
	// Δ must upper-bound the one-way delay for the fast path's timers not
	// to fire mid-flight: use half the max RTT of the submatrix plus
	// slack.
	matrix := make([][]consensus.Duration, n)
	for i := range matrix {
		matrix[i] = rtt[i][:n]
	}
	policy := sim.NewWAN(matrix, 0, 1)
	delta := policy.MaxRTT()/2 + 10

	cl, err := sim.New(sim.Options{
		N:       n,
		Delta:   delta,
		Policy:  policy,
		Horizon: consensus.Time(400 * delta),
	})
	if err != nil {
		return "err"
	}
	oracle := cl.Oracle()
	for i := 0; i < n; i++ {
		p := consensus.ProcessID(i)
		cl.SetNode(p, fac(consensus.Config{ID: p, N: n, F: f, E: e, Delta: delta}, oracle))
	}
	cl.SchedulePropose(proxy, 0, consensus.IntValue(7))
	tr := cl.Run(func(c *sim.Cluster) bool {
		_, ok := c.Trace().DecisionOf(proxy)
		return ok
	})
	d, ok := tr.DecisionOf(proxy)
	if !ok {
		return "∞"
	}
	return fmt.Sprintf("%d ms", d.At)
}
