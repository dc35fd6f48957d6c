package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
)

// StepKind names one nemesis fault.
type StepKind string

// Nemesis step kinds.
const (
	// StepPartitionHalves splits the cluster into two halves, the minority
	// containing Target.
	StepPartitionHalves StepKind = "partition-halves"
	// StepIsolate cuts Target off from everyone, both directions.
	StepIsolate StepKind = "isolate"
	// StepOneWay cuts only the Target→To direction (asymmetric partition).
	StepOneWay StepKind = "one-way"
	// StepLoss drops each message with probability P.
	StepLoss StepKind = "loss"
	// StepDup duplicates each message with probability P.
	StepDup StepKind = "dup"
	// StepDelay holds each message for Delay with probability P.
	StepDelay StepKind = "delay"
	// StepFsyncStall adds Delay to every WAL fsync on every process.
	StepFsyncStall StepKind = "fsync-stall"
	// StepCrashRestart kills Target (WAL aborted, no sync), waits Hold,
	// then reboots it from its data directory.
	StepCrashRestart StepKind = "crash-restart"
)

// Step is one nemesis action: inject the fault, hold it, heal, rest.
type Step struct {
	Kind   StepKind
	Target int
	To     int
	P      float64
	Delay  time.Duration
	Hold   time.Duration
	Rest   time.Duration
}

func (s Step) String() string {
	switch s.Kind {
	case StepOneWay:
		return fmt.Sprintf("%s(%d→%d hold=%v)", s.Kind, s.Target, s.To, s.Hold)
	case StepLoss, StepDup:
		return fmt.Sprintf("%s(p=%.2f hold=%v)", s.Kind, s.P, s.Hold)
	case StepDelay, StepFsyncStall:
		return fmt.Sprintf("%s(p=%.2f d=%v hold=%v)", s.Kind, s.P, s.Delay, s.Hold)
	default:
		return fmt.Sprintf("%s(%d hold=%v)", s.Kind, s.Target, s.Hold)
	}
}

// plan derives a nemesis schedule from rng — a pure function of the rng's
// seed. The first three steps always cover the acceptance triad
// (partition, crash-restart, message loss) when crashes are allowed;
// later steps draw from the full fault menu. scale is the base hold
// duration; holds and rests jitter around it deterministically.
func plan(rng *rand.Rand, n, steps int, scale time.Duration, canCrash bool) []Step {
	if steps <= 0 {
		return nil
	}
	menu := []StepKind{
		StepPartitionHalves, StepIsolate, StepOneWay,
		StepLoss, StepDup, StepDelay, StepFsyncStall,
	}
	if canCrash {
		menu = append(menu, StepCrashRestart)
	}
	out := make([]Step, 0, steps)
	for i := 0; i < steps; i++ {
		var kind StepKind
		switch {
		case i == 0:
			kind = StepPartitionHalves
		case i == 1 && canCrash:
			kind = StepCrashRestart
		case i == 2:
			kind = StepLoss
		default:
			kind = menu[rng.Intn(len(menu))]
		}
		s := Step{
			Kind:   kind,
			Target: rng.Intn(n),
			Hold:   scale + time.Duration(rng.Int63n(int64(scale))),
			Rest:   scale/2 + time.Duration(rng.Int63n(int64(scale))),
		}
		switch kind {
		case StepOneWay:
			s.To = (s.Target + 1 + rng.Intn(n-1)) % n
		case StepLoss:
			s.P = 0.1 + 0.3*rng.Float64()
		case StepDup:
			s.P = 0.2 + 0.4*rng.Float64()
		case StepDelay:
			s.P = 0.2 + 0.4*rng.Float64()
			s.Delay = time.Duration(1+rng.Intn(10)) * time.Millisecond
		case StepFsyncStall:
			s.Delay = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		out = append(out, s)
	}
	return out
}

// runStep injects one step against the cluster, holds it for s.Hold,
// heals, and rests for s.Rest. Crash-restart is the one step whose heal
// can fail (recovery error); everything else heals unconditionally.
func runStep(c *cluster.Cluster, n int, f *faults, s Step) error {
	switch s.Kind {
	case StepPartitionHalves:
		minority := []int{s.Target}
		var majority []int
		for i := 0; i < n; i++ {
			if i != s.Target {
				majority = append(majority, i)
			}
		}
		// Keep the minority side below quorum size: with n=3 that is the
		// single Target; larger clusters peel off ⌊(n-1)/2⌋ extra members.
		for len(minority) < (n-1)/2 {
			minority = append(minority, majority[len(majority)-1])
			majority = majority[:len(majority)-1]
		}
		f.partition(minority, majority)
	case StepIsolate:
		f.isolate(s.Target, n)
	case StepOneWay:
		f.blockPair(pid(s.Target), pid(s.To))
	case StepLoss:
		f.setLoss(s.P)
	case StepDup:
		f.setDup(s.P)
	case StepDelay:
		f.setDelay(s.P, s.Delay)
	case StepFsyncStall:
		c.StallFsync(s.Delay)
	case StepCrashRestart:
		c.Kill(s.Target)
	}
	time.Sleep(s.Hold)
	// Heal.
	f.heal()
	c.StallFsync(0)
	if s.Kind == StepCrashRestart {
		if err := c.Restart(s.Target); err != nil {
			return err
		}
	}
	time.Sleep(s.Rest)
	return nil
}
