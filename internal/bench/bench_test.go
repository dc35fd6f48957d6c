package bench

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFrontierVerdictsAllExpected asserts every empirical cell of T1 agrees
// with the theory (✓ or —, never ✗?!).
func TestFrontierVerdictsAllExpected(t *testing.T) {
	r := Frontier()
	assertNoUnexpected(t, r)
}

func TestCoverageAllExpected(t *testing.T) {
	assertNoUnexpected(t, Coverage())
}

func TestRecoveryAllExpected(t *testing.T) {
	assertNoUnexpected(t, Recovery())
}

func TestDurableRecoveryShape(t *testing.T) {
	r := DurableRecovery()
	assertNoUnexpected(t, r)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want one per fsync policy", len(r.Rows))
	}
	for _, row := range r.Rows {
		if strings.Contains(row[6], "error:") {
			t.Errorf("policy %s failed: %v", row[0], row)
			continue
		}
		// Every append that returned without error must be recovered, plus
		// nothing else: the torn record is truncated away, so the recovered
		// count equals the acknowledged count.
		if want := "513/513"; row[3] != want {
			t.Errorf("policy %s: crash recovery %q, want %q", row[0], row[3], want)
		}
		if row[4] != "✓" {
			t.Errorf("policy %s: torn tail not detected: %v", row[0], row)
		}
	}
}

func TestLowerBoundsAllExpected(t *testing.T) {
	assertNoUnexpected(t, LowerBounds())
}

func TestSoakSmallAllExpected(t *testing.T) {
	assertNoUnexpected(t, SoakTable(15))
}

func TestModelCheckAllExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("T6 explores ~150k states")
	}
	assertNoUnexpected(t, ModelCheck())
}

func TestChaosSoakAllExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("T7 boots three live durable clusters")
	}
	r := ChaosSoak()
	assertNoUnexpected(t, r)
	for _, row := range r.Rows {
		if strings.Contains(row[len(row)-1], "error") {
			t.Errorf("T7: harness error in row %v", row)
		}
	}
}

// assertNoUnexpected fails on any cell flagged "✗?!" (observed ≠ expected).
func assertNoUnexpected(t *testing.T, r *Result) {
	t.Helper()
	if len(r.Rows) == 0 {
		t.Fatalf("%s: empty result", r.ID)
	}
	for _, row := range r.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "?!") {
				t.Errorf("%s: unexpected verdict in row %v", r.ID, row)
			}
		}
	}
}

func TestLatencyVsCrashesShape(t *testing.T) {
	r := LatencyVsCrashes()
	if len(r.Rows) < 3 {
		t.Fatalf("too few rows: %v", r.Rows)
	}
	// Row 0 (no crashes): every protocol decides in 2.0Δ.
	for i, cell := range r.Rows[0][1:] {
		if cell != "2.0Δ" {
			t.Errorf("crash-free latency col %d = %q, want 2.0Δ", i, cell)
		}
	}
	// Row 1 (leader crashed): Paxos (last column) must be slower than 2Δ,
	// the fast protocols must not be.
	row := r.Rows[1]
	last := row[len(row)-1]
	if last == "2.0Δ" {
		t.Errorf("paxos with crashed leader still 2.0Δ")
	}
	for _, cell := range row[1 : len(row)-1] {
		if cell != "2.0Δ" {
			t.Errorf("fast protocol degraded under 1 ≤ e crashes: %q (row %v)", cell, row)
		}
	}
}

func TestWANShape(t *testing.T) {
	r := WAN()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// In every region, core-object (col 1) must beat fastpaxos (col 3):
	// the extra two replicas push the fast quorum farther for each proxy.
	for _, row := range r.Rows {
		coreMS := parseMS(t, row[1])
		fpMS := parseMS(t, row[3])
		if coreMS >= fpMS {
			t.Errorf("region %s: core-object %dms !< fastpaxos %dms", row[0], coreMS, fpMS)
		}
		// EPaxos matches core-object (same fast quorum geometry).
		if epMS := parseMS(t, row[2]); epMS != coreMS {
			t.Errorf("region %s: epaxos %dms != core-object %dms", row[0], epMS, coreMS)
		}
	}
}

func parseMS(t *testing.T, cell string) int {
	t.Helper()
	var v int
	if _, err := sscanf(cell, &v); err != nil {
		t.Fatalf("bad latency cell %q: %v", cell, err)
	}
	return v
}

func sscanf(cell string, v *int) (int, error) {
	cell = strings.TrimSuffix(cell, " ms")
	n := 0
	for _, r := range cell {
		if r < '0' || r > '9' {
			return 0, errBadCell(cell)
		}
		n = n*10 + int(r-'0')
	}
	*v = n
	return 1, nil
}

type errBadCell string

func (e errBadCell) Error() string { return "bad cell: " + string(e) }

func TestAblationShape(t *testing.T) {
	r := Ablation()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	full := r.Rows[0]
	if full[1] != "✓" || full[2] != "safe" || full[3] != "safe" || !strings.HasPrefix(full[4], "2000/2000") {
		t.Errorf("full protocol row unexpected: %v", full)
	}
	noOrder := r.Rows[1]
	if noOrder[2] != "VIOLATED" {
		t.Errorf("no-ordering must be violated on low-fast schedule: %v", noOrder)
	}
	noExcl := r.Rows[2]
	if noExcl[3] != "VIOLATED" {
		t.Errorf("no-exclusion must be violated on insider schedule: %v", noExcl)
	}
	noEq := r.Rows[3]
	if strings.HasPrefix(noEq[4], "2000/2000") {
		t.Errorf("no-equality must lose tight-quorum recoveries: %v", noEq)
	}
}

func TestRecoveryTrialsAblationsFail(t *testing.T) {
	// Sanity: the same trial generator that gives 100% for the full
	// protocol must not give 100% with EqualityBranch disabled when the
	// trials include exact-threshold states... the generic generator
	// rarely produces exact-threshold intersections, so use the tight
	// generator from the ablation experiment.
	opts := core.DefaultOptions()
	trials, ok := tightQuorumTrials(opts, 2, 2, 500, 5)
	if ok != trials {
		t.Fatalf("full protocol: %d/%d", ok, trials)
	}
	opts.EqualityBranch = false
	_, okNoEq := tightQuorumTrials(opts, 2, 2, 500, 5)
	if okNoEq == trials {
		t.Fatal("no-equality ablation lost nothing on tight quorums")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "X", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow(1, "✓")
	r.AddNote("note %d", 7)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## X — t", "| a | bb |", "| 1 | ✓  |", "> note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Fmt() != "—" || s.InDelta(10) != "—" {
		t.Fatal("empty sample formatting")
	}
	for _, x := range []float64{10, 20, 30, 40} {
		s.Add(x)
	}
	if s.Mean() != 25 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Percentile(50) != 20 {
		t.Fatalf("p50 = %v", s.Percentile(50))
	}
	if s.Percentile(100) != 40 || s.Max() != 40 {
		t.Fatalf("p100 = %v max = %v", s.Percentile(100), s.Max())
	}
	if got := s.InDelta(10); got != "2.5Δ" {
		t.Fatalf("InDelta = %q", got)
	}
}

// TestExperimentIndexInSync holds the two documents that list the
// experiments to the registry: DESIGN.md §4 has one row per registered ID
// and EXPERIMENTS.md one generated section, in registry order, and neither
// names an ID that is not registered.
func TestExperimentIndexInSync(t *testing.T) {
	var want []string
	for _, exp := range Experiments(0, true) {
		want = append(want, exp.ID)
	}
	for file, re := range map[string]string{
		"../../DESIGN.md":      `(?m)^\| ([TFA]\d+b?) `,
		"../../EXPERIMENTS.md": `(?m)^## ([TFA]\d+b?) — `,
	} {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range regexp.MustCompile(re).FindAllSubmatch(body, -1) {
			got = append(got, string(m[1]))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s lists %v, the registry has %v", file, got, want)
		}
	}
}
