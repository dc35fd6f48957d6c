// Package planner turns the paper's bounds into deployment advice: given a
// desired crash tolerance f, a fast-path tolerance e, a consensus
// formulation, and a latency matrix between candidate sites, it computes
// how many replicas are needed, which sites to place them at, and what
// fast-path commit latency each client region can expect.
//
// The latency model matches the protocols' fast path: a proxy at site s
// commits after one message delay to the replicas and one back, gated by
// the (n−e)-th closest replica (counting a co-located replica as distance
// zero). The planner searches placements exhaustively (candidate counts in
// the tens — realistic for cloud regions), optimizing the mean or the
// maximum proxy latency.
package planner

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/consensus"
	"repro/internal/quorum"
)

// ErrNoPlacement is returned when the candidate set is smaller than the
// required replica count.
var ErrNoPlacement = errors.New("planner: not enough candidate sites")

// Objective selects what a placement search minimizes.
type Objective int

const (
	// MinimizeMean minimizes the mean commit latency over proxy sites.
	MinimizeMean Objective = iota + 1
	// MinimizeMax minimizes the worst proxy site's commit latency.
	MinimizeMax
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinimizeMean:
		return "mean"
	case MinimizeMax:
		return "max"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Request describes a deployment problem.
type Request struct {
	// Mode is the consensus formulation (task/object/lamport).
	Mode quorum.Mode
	// F and E are the resilience and fast-path thresholds.
	F, E int
	// Sites names the candidate sites; RTT[i][j] is the round-trip time
	// between sites i and j (RTT[i][i] = 0).
	Sites []string
	RTT   [][]consensus.Duration
	// ProxySites are indices of sites that host client proxies; empty
	// means every candidate site.
	ProxySites []int
	// Objective defaults to MinimizeMean.
	Objective Objective
}

// Plan is the planner's answer.
type Plan struct {
	// N is the required replica count for (Mode, F, E).
	N int
	// Replicas are the chosen site indices, ascending.
	Replicas []int
	// ProxyLatency maps each proxy site index to its expected fast-path
	// commit latency.
	ProxyLatency map[int]consensus.Duration
	// MeanLatency and MaxLatency summarize ProxyLatency.
	MeanLatency float64
	MaxLatency  consensus.Duration
}

// Solve finds the optimal placement for the request.
func Solve(req Request) (Plan, error) {
	if req.F < 0 || req.E < 0 || req.E > req.F {
		return Plan{}, fmt.Errorf("planner: need 0 ≤ e ≤ f, got f=%d e=%d", req.F, req.E)
	}
	if len(req.Sites) == 0 || len(req.RTT) != len(req.Sites) {
		return Plan{}, fmt.Errorf("planner: sites/RTT shape mismatch")
	}
	for i, row := range req.RTT {
		if len(row) != len(req.Sites) {
			return Plan{}, fmt.Errorf("planner: RTT row %d has %d entries, want %d", i, len(row), len(req.Sites))
		}
	}
	n := quorum.MinProcesses(req.Mode, req.F, req.E)
	if n > len(req.Sites) {
		return Plan{}, fmt.Errorf("planner: %s f=%d e=%d needs %d sites, have %d: %w",
			req.Mode, req.F, req.E, n, len(req.Sites), ErrNoPlacement)
	}
	proxies := req.ProxySites
	if len(proxies) == 0 {
		proxies = make([]int, len(req.Sites))
		for i := range proxies {
			proxies[i] = i
		}
	}
	objective := req.Objective
	if objective == 0 {
		objective = MinimizeMean
	}

	best := Plan{}
	bestScore := -1.0
	forEachSubset(len(req.Sites), n, func(subset []int) {
		plan := evaluate(req, subset, proxies, n)
		var score float64
		if objective == MinimizeMax {
			score = float64(plan.MaxLatency)
		} else {
			score = plan.MeanLatency
		}
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = plan
		}
	})
	return best, nil
}

// evaluate computes the plan metrics for one placement.
func evaluate(req Request, subset, proxies []int, n int) Plan {
	replicas := make([]int, len(subset))
	copy(replicas, subset)
	plan := Plan{
		N:            n,
		Replicas:     replicas,
		ProxyLatency: make(map[int]consensus.Duration, len(proxies)),
	}
	fastQuorum := n - req.E
	total := 0.0
	for _, proxy := range proxies {
		lat := proxyCommitLatency(req.RTT, replicas, proxy, fastQuorum)
		plan.ProxyLatency[proxy] = lat
		total += float64(lat)
		if lat > plan.MaxLatency {
			plan.MaxLatency = lat
		}
	}
	if len(proxies) > 0 {
		plan.MeanLatency = total / float64(len(proxies))
	}
	return plan
}

// proxyCommitLatency is the fast-path commit latency for a proxy at site
// `proxy`: the RTT to the fastQuorum-th closest replica (a co-located
// replica counts at distance zero; the proxy itself fills one quorum slot
// only if a replica lives at its site).
func proxyCommitLatency(rtt [][]consensus.Duration, replicas []int, proxy, fastQuorum int) consensus.Duration {
	dists := make([]consensus.Duration, 0, len(replicas))
	for _, r := range replicas {
		dists = append(dists, rtt[proxy][r])
	}
	sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
	if fastQuorum < 1 {
		fastQuorum = 1
	}
	if fastQuorum > len(dists) {
		fastQuorum = len(dists)
	}
	return dists[fastQuorum-1]
}

// forEachSubset enumerates all k-subsets of {0..n-1}.
func forEachSubset(n, k int, visit func([]int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		visit(idx)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Compare solves the same request under every formulation and returns the
// plans keyed by mode — the planner's version of the paper's headline: the
// object formulation needs the fewest sites and commits fastest.
func Compare(req Request) (map[quorum.Mode]Plan, error) {
	out := make(map[quorum.Mode]Plan, 3)
	for _, mode := range []quorum.Mode{quorum.Object, quorum.Task, quorum.Lamport} {
		r := req
		r.Mode = mode
		plan, err := Solve(r)
		if err != nil {
			if errors.Is(err, ErrNoPlacement) {
				continue // a formulation may simply not fit
			}
			return nil, err
		}
		out[mode] = plan
	}
	if len(out) == 0 {
		return nil, ErrNoPlacement
	}
	return out, nil
}
