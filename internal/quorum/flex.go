package quorum

import (
	"errors"
	"fmt"
)

// ErrUnsound is returned by NewFlex for quorum-size combinations whose
// intersection requirements fail — combinations on which Fast-Paxos-style
// recovery could re-select a value different from a fast-decided one.
var ErrUnsound = errors.New("flexible quorum sizes violate intersection requirements")

// Flex describes a flexible-quorum deployment in the style of Fast
// Flexible Paxos (Howard, Charapko, Mortier — "Fast Flexible Paxos:
// Relaxing Quorum Intersection for Fast Paxos"): quorum roles are split
// and only the intersections the safety argument actually uses are
// required. With counting quorums of sizes
//
//	fast     = |Qf|  (ballot-0 votes needed for a fast decision)
//	classic  = |Q2|  (slow-ballot 2B votes needed to commit)
//	recovery = |Q1|  (1B reports a new leader collects before recovering)
//
// on n processes, soundness needs
//
//	classic intersection:  recovery + classic  > n       (every Q1 meets every Q2)
//	fast intersection:     recovery + 2·fast   > 2n      (every Q1 meets every PAIR of fast quorums)
//
// The second line is what makes the O4-style vote count unambiguous: a
// fast-decided value shows at least FastOverlap = recovery+fast−n votes
// among the 1B reports, and no two values can both reach that count.
//
// Availability is the trade-off, not a free parameter: the fast path
// tolerates n−fast crashes (Flex requires fast ≤ n−e so it stays e-two-
// step), the classic path tolerates n−classic ≥ f, but leader change
// needs `recovery` live processes — RecoveryResilience reports how many
// crashes that path survives. Lamport's bound n ≥ 2e+f+1 is not evaded:
// shrinking the fast quorum below n−e' sacrifices exactly that recovery
// resilience, which is why the default (non-flex) sizes keep recovery at
// n−f.
type Flex struct {
	// N is the process count; F and E the resilience and fast thresholds
	// the deployment claims (fast quorums must survive E crashes, classic
	// quorums F).
	N, F, E int
	// Fast, Classic and Recovery are the three quorum sizes.
	Fast, Classic, Recovery int
}

// NewFlex validates a flexible-quorum configuration, rejecting every
// unsound combination (see the property test, which checks the rejection
// against explicit worst-case quorum placements for all n ≤ 11). Zero
// sizes select the non-flex defaults: fast = n−e, recovery = n−f. The
// classic (phase-2) size is always n−f — flexing it buys nothing in this
// codebase because commits already wait for n−f acknowledgements.
func NewFlex(n, f, e, fast, recovery int) (Flex, error) {
	if e < 0 || f < 0 || e > f {
		return Flex{}, fmt.Errorf("quorum: flex thresholds f=%d e=%d: must satisfy 0 ≤ e ≤ f", f, e)
	}
	if n < PlainMinProcesses(f) {
		return Flex{}, fmt.Errorf("quorum: flex n=%d f=%d: %w", n, f, ErrInfeasible)
	}
	fl := Flex{N: n, F: f, E: e, Fast: fast, Classic: n - f, Recovery: recovery}
	if fl.Fast == 0 {
		fl.Fast = n - e
	}
	if fl.Recovery == 0 {
		fl.Recovery = n - f
	}
	if fl.Fast < 1 || fl.Fast > n || fl.Recovery < 1 || fl.Recovery > n {
		return Flex{}, fmt.Errorf("quorum: flex sizes fast=%d recovery=%d out of [1,%d]: %w",
			fl.Fast, fl.Recovery, n, ErrUnsound)
	}
	if fl.Fast > n-e {
		return Flex{}, fmt.Errorf("quorum: fast quorum %d of %d cannot survive e=%d crashes (needs ≤ %d): %w",
			fl.Fast, n, e, n-e, ErrUnsound)
	}
	if fl.Recovery+fl.Classic <= n {
		return Flex{}, fmt.Errorf("quorum: recovery quorum %d misses classic quorum %d on n=%d: %w",
			fl.Recovery, fl.Classic, n, ErrUnsound)
	}
	if fl.Recovery+2*fl.Fast <= 2*n {
		return Flex{}, fmt.Errorf("quorum: recovery quorum %d misses a pair of fast quorums of %d on n=%d (need recovery ≥ %d or fast ≥ %d): %w",
			fl.Recovery, fl.Fast, n, FlexClassicSide(n, fl.Fast), FlexFastSide(n, fl.Recovery), ErrUnsound)
	}
	return fl, nil
}

// CheckFlex reports whether the (n, f, e, fast, recovery) combination is
// sound, without constructing the Flex.
func CheckFlex(n, f, e, fast, recovery int) error {
	_, err := NewFlex(n, f, e, fast, recovery)
	return err
}

// FlexFastSide returns the smallest sound fast-quorum size on n processes
// given a recovery (phase-1) quorum of size recovery: the least qf with
// recovery + 2·qf > 2n.
func FlexFastSide(n, recovery int) int { return (2*n-recovery)/2 + 1 }

// FlexClassicSide returns the smallest sound recovery (phase-1) quorum
// size on n processes given fast quorums of size fast: the least q1 with
// q1 + 2·fast > 2n. (The classic-intersection requirement adds q1 ≥ f+1;
// NewFlex enforces both.)
func FlexClassicSide(n, fast int) int { return max(2*(n-fast)+1, 1) }

// SmallestFastFlex returns the flexible configuration with the smallest
// sound fast quorum on n processes — a bare majority, paid for with a
// recovery quorum of all n (RecoveryResilience 0): the extreme point of
// the Fast Flexible Paxos trade-off, and the configuration the WAN bench
// sweeps as "flex on". Returns ErrUnsound via NewFlex when even the
// majority fast quorum cannot survive e crashes (n/2+1 > n−e).
func SmallestFastFlex(n, f, e int) (Flex, error) {
	fast := n/2 + 1
	return NewFlex(n, f, e, fast, FlexClassicSide(n, fast))
}

// FastOverlap returns recovery+fast−n: the minimum number of members any
// fast quorum shares with any recovery quorum, and therefore the O4-style
// vote-count threshold a fast-decided value is guaranteed to reach among
// the 1B reports. With the non-flex defaults this is the familiar n−e−f.
func (fl Flex) FastOverlap() int { return fl.Recovery + fl.Fast - fl.N }

// RecoveryResilience returns n−recovery, the number of crashes the
// leader-change path survives. The non-flex default is f; flexible
// configurations trade it away for a smaller fast quorum.
func (fl Flex) RecoveryResilience() int { return fl.N - fl.Recovery }

// String implements fmt.Stringer.
func (fl Flex) String() string {
	return fmt.Sprintf("flex{n=%d f=%d e=%d |Qf|=%d |Q2|=%d |Q1|=%d}",
		fl.N, fl.F, fl.E, fl.Fast, fl.Classic, fl.Recovery)
}
