//go:build chaos

package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/linear"
)

// The full suite is opt-in (go test -tags chaos, or `make chaos`): it runs
// many multi-second scenarios and belongs in scheduled CI, not every push.
//
// Reproducing a failure: every failing seed is reported with a
// copy-pasteable command line; -chaos.seed reruns exactly that scenario.
var (
	flagSeeds = flag.Int64("chaos.seeds", 20, "number of consecutive seeds to run, starting at -chaos.seed")
	flagSeed  = flag.Int64("chaos.seed", 1, "first seed (with -chaos.seeds=1, reruns a single scenario)")
	flagShort = flag.Bool("chaos.short", false, "shrink each scenario (fewer ops/steps) for quick CI runs")
)

// TestChaosFull runs -chaos.seeds seeded scenarios at full size, each as a
// subtest named by its seed so -run 'TestChaosFull/seed=N' also works.
func TestChaosFull(t *testing.T) {
	o := DefaultOptions()
	if *flagShort {
		o.Clients = 2
		o.OpsPerClient = 20
		o.Steps = 3
	}
	for seed := *flagSeed; seed < *flagSeed+*flagSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := RunScenario(t.TempDir(), seed, o)
			if err != nil {
				t.Fatalf("scenario failed: %v\nrepro: %s", err, ReproLine(seed))
			}
			if res.Check.TimedOut {
				t.Fatalf("checker timed out after %v (%d ops)\nrepro: %s",
					res.CheckDuration, res.Ops, ReproLine(seed))
			}
			if !res.Check.Ok {
				t.Fatalf("history NOT linearizable (key %q, %d ops visited %d states)\nrepro: %s\nhistory: %s",
					res.Check.Key, res.Check.Ops, res.Check.Visited, ReproLine(seed), saveKeyHistory(t, seed, res))
			}
			t.Logf("ops=%d ambiguous=%d faultDrops=%d converge=%v check=%v plan=%v",
				res.Ops, res.Ambiguous, res.FaultDrops, res.Converge, res.CheckDuration, res.Plan)
		})
	}
}

// saveKeyHistory writes the history of the key the check failed on as JSON
// to a temporary file that outlives the run, and returns its path: the
// evidence of a failing seed that does not fail again.
func saveKeyHistory(t *testing.T, seed int64, res Result) string {
	var ops linear.History
	for _, op := range res.History {
		if op.Key == res.Check.Key {
			ops = append(ops, op)
		}
	}
	f, err := os.CreateTemp("", fmt.Sprintf("chaos-seed%d-*.json", seed))
	if err != nil {
		t.Errorf("saving the failing history: %v", err)
		return "not saved"
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ops); err != nil {
		t.Errorf("saving the failing history: %v", err)
	}
	return f.Name()
}
