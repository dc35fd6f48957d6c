package analyzers_test

import (
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysistest"
)

// TestDeterminismProtocolPackage runs the determinism analyzer over a fixture
// loaded as a protocol package: clock reads, unseeded randomness, goroutines
// and order-sensitive map iteration are flagged; sorted collection,
// commutative folds and the //lint:allow escape hatch are not.
func TestDeterminismProtocolPackage(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/determinism/proto",
		"repro/internal/core", analyzers.Determinism)
}

// TestDeterminismNonProtocolPackage loads the same kinds of constructs as a
// non-protocol package, where the determinism contract does not apply.
func TestDeterminismNonProtocolPackage(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/determinism/nonproto",
		"repro/internal/bench", analyzers.Determinism)
}

// TestDeterminismSeededPackage runs the analyzer over a fixture loaded as a
// seeded package (the chaos/linear tier): clocks and goroutines are the
// harness's to own, but unseeded global randomness and order-sensitive map
// iteration still break seed→schedule reproducibility and are flagged.
func TestDeterminismSeededPackage(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/determinism/seeded",
		"repro/internal/chaos", analyzers.Determinism)
}

func TestIsSeededPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/chaos":  true,
		"repro/internal/linear": true,
		"repro/internal/core":   false, // full protocol contract, not the seeded subset
		"repro/internal/bench":  false,
	} {
		if got := analyzers.IsSeededPackage(path); got != want {
			t.Errorf("IsSeededPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestIsProtocolPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/core":        true,
		"repro/internal/consensus":   true,
		"repro/internal/mc":          true,
		"repro/internal/quorum":      true,
		"repro/internal/lease":       true,  // replayed on recovery: clock values arrive as arguments
		"repro/internal/smr/slotlog": true,  // replayed input for input: the host owns the clocks and I/O
		"repro/internal/smr":         false, // the host of the slot log
		"repro/internal/sim":         false, // the simulator owns the clock
		"repro/internal/bench":       false,
	} {
		if got := analyzers.IsProtocolPackage(path); got != want {
			t.Errorf("IsProtocolPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestDeterminismHostTimerPackage loads a fixture as internal/smr, one of the
// hosts whose timers are internal/deadline's: every Go timer constructor is
// flagged.
func TestDeterminismHostTimerPackage(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/determinism/hosttimer",
		"repro/internal/smr", analyzers.Determinism)
}

// TestDeterminismHostTimerClean loads a fixture as internal/transport that
// takes its timers from internal/deadline and reads the clock, spawns a
// goroutine, draws from the global rand and ranges over a map: the tier
// flags none of it.
func TestDeterminismHostTimerClean(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/determinism/hosttimerclean",
		"repro/internal/transport", analyzers.Determinism)
}
