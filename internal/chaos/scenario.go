package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/linear"
	"repro/internal/transport"
)

// Seed salts: the plan, the per-message fault sampling, and each client
// script draw from independent streams of the one scenario seed, so
// changing e.g. the client count does not silently reshuffle the nemesis.
const (
	saltPlan   int64 = 0x1e3779b97f4a7c15
	saltFaults int64 = 0x3f58476d1ce4e5b9
	saltScript int64 = 0x14d049bb133111eb
)

// Options sizes a chaos scenario. The zero value is not runnable; start
// from DefaultOptions.
type Options struct {
	// Cluster shape (consensus.Config N/F/E).
	N, F, E int
	// Workload: Clients concurrent clients, each running OpsPerClient
	// scripted operations over Keys keys.
	Clients, OpsPerClient, Keys int
	// Steps is the number of nemesis steps; 0 disables the nemesis.
	Steps int
	// Scale is the nemesis base hold duration (holds and rests jitter
	// around it, deterministically per seed).
	Scale time.Duration
	// OpTimeout bounds each client operation.
	OpTimeout time.Duration
	// OpGap paces clients between operations so the workload stays live
	// across the whole nemesis schedule instead of finishing inside the
	// first fault window.
	OpGap time.Duration
	// ConvergeTimeout bounds the post-heal reconvergence wait.
	ConvergeTimeout time.Duration
	// CheckTimeout bounds the linearizability search.
	CheckTimeout time.Duration
	// StaleReads enables the deliberate stale-read fault on replica 0 —
	// the harness-has-teeth scenario. The checker MUST fail such a run.
	StaleReads bool
}

// DefaultOptions is the standard full-stack scenario: a 3-replica durable
// cluster (fsync=always), 4 clients × 50 ops, 6 nemesis steps.
func DefaultOptions() Options {
	return Options{
		N: 3, F: 1, E: 1,
		Clients: 4, OpsPerClient: 50, Keys: 4,
		Steps:           6,
		Scale:           150 * time.Millisecond,
		OpTimeout:       2 * time.Second,
		OpGap:           15 * time.Millisecond,
		ConvergeTimeout: 30 * time.Second,
		CheckTimeout:    30 * time.Second,
	}
}

// Result is one scenario's outcome. The harness-level error channel
// (RunScenario's second return) is separate: a Result is meaningful only
// when the scenario itself ran to completion.
type Result struct {
	Seed int64
	// Plan is the nemesis schedule that ran (derived from Seed).
	Plan []Step
	// Ops counts recorded operations; Ambiguous counts the maybe-applied
	// subset (kept in the history with open intervals).
	Ops, Ambiguous int
	// FaultDrops counts messages the nemesis discarded.
	FaultDrops uint64
	// Converge is how long post-heal reconvergence took.
	Converge time.Duration
	// Check is History's linearizability verdict; CheckDuration the search time.
	History       linear.History
	Check         linear.Result
	CheckDuration time.Duration
}

// Plan returns the nemesis schedule RunScenario will execute for a seed —
// a pure function of (seed, o); the determinism tests pin exactly that.
func Plan(seed int64, o Options) []Step {
	return plan(rand.New(rand.NewSource(seed^saltPlan)), o.N, o.Steps, o.Scale, o.F >= 1)
}

// Scripts returns every client's scripted operations for a seed (pure,
// like Plan).
func Scripts(seed int64, o Options) [][]scriptOp {
	out := make([][]scriptOp, o.Clients)
	for i := range out {
		rng := rand.New(rand.NewSource(seed ^ saltScript ^ int64(i)<<32))
		out[i] = script(rng, i, o.OpsPerClient, o.Keys)
	}
	return out
}

// ReproLine renders the copy-pasteable command that reruns one seed.
func ReproLine(seed int64) string {
	return fmt.Sprintf("go test -tags chaos ./internal/chaos -run TestChaosFull -v -chaos.seed=%d -chaos.seeds=1", seed)
}

// RunScenario runs one seeded scenario in dir (which must be empty or
// fresh): boot a durable cluster — the 1-group assembly cmd/kv ships
// (internal/cluster), on the Mesh — unleash the scripted clients and the
// nemesis, heal, wait for reconvergence, and check the merged history.
// Harness failures (boot errors, a process that cannot recover, no
// reconvergence) come back as the error; a non-linearizable history comes
// back in Result.Check.
func RunScenario(dir string, seed int64, o Options) (Result, error) {
	res := Result{Seed: seed, Plan: Plan(seed, o)}
	scripts := Scripts(seed, o)

	c, err := cluster.New(cluster.Options{N: o.N, F: o.F, E: o.E, Dir: dir})
	if err != nil {
		return res, fmt.Errorf("chaos: boot cluster: %w", err)
	}
	defer c.Close()
	if o.StaleReads {
		c.Runtime(0).Group(0).FaultInjectStaleReads()
	}
	flt := newFaults(seed ^ saltFaults)
	c.Fabric().SetFault(flt.verdict)

	rec := linear.NewRecorder()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(ctx, c, rec, i, i%o.N, scripts[i], o.OpTimeout, o.OpGap)
		}(i)
	}
	nemErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range res.Plan {
			if err := runStep(c, o.N, flt, s); err != nil {
				nemErr <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-nemErr:
		return res, err
	default:
	}

	// Chaos over (every step healed what it broke, crash-restarts included):
	// heal the fabric and require the cluster to reconverge.
	c.Fabric().SetFault(nil)
	keys := keyUniverse(o.Keys)
	if o.StaleReads {
		// The deliberate stale-read fault breaks read agreement by design;
		// require only applied-index agreement so the scenario reaches the
		// checker (whose job is to catch exactly this fault).
		keys = nil
	}
	start := time.Now()
	if err := c.WaitConverged(keys, o.ConvergeTimeout); err != nil {
		return res, err
	}
	res.Converge = time.Since(start)

	h := rec.History()
	res.History, res.Ops = h, len(h)
	for _, op := range h {
		if op.Outcome == linear.OutcomeAmbiguous {
			res.Ambiguous++
		}
	}
	res.FaultDrops = c.Fabric().Stats().DropsByCause[transport.DropFault]
	start = time.Now()
	res.Check = linear.CheckTimeout(h, o.CheckTimeout)
	res.CheckDuration = time.Since(start)
	return res, nil
}
