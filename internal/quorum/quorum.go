// Package quorum encodes the process-count bounds studied by the paper and
// the quorum arithmetic shared by the protocols. It is the single source of
// truth for the formulas
//
//	task:     n ≥ max{2e+f,   2f+1}   (Theorem 5)
//	object:   n ≥ max{2e+f−1, 2f+1}   (Theorem 6)
//	Lamport:  n ≥ max{2e+f+1, 2f+1}   (Lamport 2006b; matched by Fast Paxos)
//	plain:    n ≥ 2f+1                (Dwork–Lynch–Stockmeyer)
package quorum

import (
	"errors"
	"fmt"
)

// ErrInfeasible is returned by Check* helpers when n is below the bound.
var ErrInfeasible = errors.New("process count below lower bound")

// Mode selects which formulation of e-two-step consensus a bound refers to.
type Mode int

const (
	// Task is consensus as a decision task (every process has an input).
	Task Mode = iota + 1
	// Object is consensus as an atomic object (explicit propose calls).
	Object
	// Lamport is Lamport's original definition of fast consensus,
	// matched by Fast Paxos.
	Lamport
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Task:
		return "task"
	case Object:
		return "object"
	case Lamport:
		return "lamport"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PlainMinProcesses returns 2f+1, the minimum for f-resilient partially
// synchronous consensus with no fast-decision requirement.
func PlainMinProcesses(f int) int { return 2*f + 1 }

// TaskMinProcesses returns max{2e+f, 2f+1}: the tight bound for an
// f-resilient e-two-step consensus task (Theorem 5).
func TaskMinProcesses(f, e int) int { return max(2*e+f, 2*f+1) }

// ObjectMinProcesses returns max{2e+f−1, 2f+1}: the tight bound for an
// f-resilient e-two-step consensus object (Theorem 6).
func ObjectMinProcesses(f, e int) int { return max(2*e+f-1, 2*f+1) }

// LamportMinProcesses returns max{2e+f+1, 2f+1}: Lamport's lower bound for
// fast consensus, matched by Fast Paxos.
func LamportMinProcesses(f, e int) int { return max(2*e+f+1, 2*f+1) }

// TaskFastSide returns 2e+f, the fast-path side of the Task bound's
// max{2e+f, 2f+1}. The lower-bound constructions (internal/lowerbound) and
// the frontier tables reason about this side in isolation: the §B.1 splice
// needs n one below it, independent of whether 2f+1 happens to dominate.
func TaskFastSide(f, e int) int { return 2*e + f }

// ObjectFastSide returns 2e+f−1, the fast-path side of the Object bound's
// max{2e+f−1, 2f+1} (Theorem 6).
func ObjectFastSide(f, e int) int { return 2*e + f - 1 }

// LamportFastSide returns 2e+f+1, the fast-path side of Lamport's
// max{2e+f+1, 2f+1}.
func LamportFastSide(f, e int) int { return 2*e + f + 1 }

// FastSideBinds reports whether, for the given mode, the fast-path side of
// the max is the binding term — i.e. whether removing one process from the
// minimum-size system drops it below the fast-path requirement, which is the
// precondition for the paper's breaking constructions to apply at n = min−1.
// Task and Object treat a tie as binding (at equality the construction still
// applies); Lamport requires a strict excess (2e+f+1 > 2f+1 ⟺ 2e > f), since
// at a tie n−1 already violates the plain 2f+1 bound instead.
func FastSideBinds(mode Mode, f, e int) bool {
	switch mode {
	case Task:
		return TaskFastSide(f, e) >= PlainMinProcesses(f)
	case Object:
		return ObjectFastSide(f, e) >= PlainMinProcesses(f)
	case Lamport:
		return LamportFastSide(f, e) > PlainMinProcesses(f)
	default:
		return false
	}
}

// MinProcesses dispatches on mode.
func MinProcesses(mode Mode, f, e int) int {
	switch mode {
	case Task:
		return TaskMinProcesses(f, e)
	case Object:
		return ObjectMinProcesses(f, e)
	case Lamport:
		return LamportMinProcesses(f, e)
	default:
		return PlainMinProcesses(f)
	}
}

// Check returns nil if n processes suffice for the given mode and
// thresholds, and a wrapped ErrInfeasible otherwise.
func Check(mode Mode, n, f, e int) error {
	if e < 0 || f < 0 || e > f {
		return fmt.Errorf("thresholds f=%d e=%d: must satisfy 0 ≤ e ≤ f", f, e)
	}
	if min := MinProcesses(mode, f, e); n < min {
		return fmt.Errorf("%s consensus with f=%d e=%d needs n ≥ %d, have %d: %w",
			mode, f, e, min, n, ErrInfeasible)
	}
	return nil
}

// MaxFastThreshold returns the largest e for which n processes can be
// e-two-step in the given mode with resilience f, or 0 if none (e ≥ 1 is the
// interesting regime; e = 0 is always achievable when n ≥ 2f+1).
func MaxFastThreshold(mode Mode, n, f int) int {
	best := 0
	for e := 1; e <= f; e++ {
		if n >= MinProcesses(mode, f, e) {
			best = e
		}
	}
	return best
}

// ByzantineFastMinProcesses returns 3f+2e−1: the number of processes
// necessary and sufficient for fast consensus under Byzantine failures per
// Kuznetsov, Tonkikh and Zhang (PODC 2021), which the paper cites as the
// Byzantine analogue of Lamport's bound and names — combined with its own
// relaxed two-step definition — as the open future-work direction. This
// repository implements only the crash-failure protocols; the constant is
// provided so deployment planning (internal/planner, cmd/plan) can size a
// prospective Byzantine deployment for comparison.
func ByzantineFastMinProcesses(f, e int) int { return max(3*f+2*e-1, 3*f+1) }

// EPaxosFastThreshold returns e = ⌈(f+1)/2⌉, the fast-path crash tolerance
// Egalitarian Paxos achieves on 2f+1 processes (paper, §1). Note
// 2e+f−1 = 2f+1 exactly at this e when f is odd, which is how EPaxos sits
// precisely on the object bound.
func EPaxosFastThreshold(f int) int { return (f + 2) / 2 }

// EPaxosFastQuorum returns f + ⌊(f+1)/2⌋, the EPaxos fast-path quorum size
// (including the command leader) on 2f+1 processes.
func EPaxosFastQuorum(f int) int { return f + (f+1)/2 }
