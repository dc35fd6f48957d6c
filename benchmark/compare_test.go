package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func oneWorkload(name string, vals map[string]float64) *report {
	m := metrics{}
	for k, v := range vals {
		m.set(k, v, "", 0)
	}
	return &report{Workloads: []workloadReport{{Workload: name, EndToEnd: m}}}
}

func TestCompareHoldsEachMetricToItsBound(t *testing.T) {
	gates := []gate{
		{Name: "ops_s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_ms", Better: "lower", Bound: 0.10},
		{Name: "read_p50_ms", Better: "lower", Bound: 0.10},
	}
	a := oneWorkload("put-sat", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5, "lat_p99_ms": 20})
	for _, tc := range []struct {
		name string
		b    map[string]float64
		bad  int
	}{
		{"identical", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5}, 0},
		{"better both ways", map[string]float64{"ops_s": 2000, "lat_p50_ms": 1}, 0},
		{"within bounds", map[string]float64{"ops_s": 910, "lat_p50_ms": 5.4}, 0},
		{"throughput fell", map[string]float64{"ops_s": 880, "lat_p50_ms": 5}, 1},
		{"latency rose", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5.6}, 1},
		{"metric vanished", map[string]float64{"ops_s": 1000}, 1},
		{"a write was lost", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5, "wrong_results": 1}, 1},
		{"ops failed", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5, "failed_share": 0.01}, 1},
		{"ungated metric doubled", map[string]float64{"ops_s": 1000, "lat_p50_ms": 5, "lat_p99_ms": 40}, 0},
	} {
		rows, bad := compareReports(gates, a, oneWorkload("put-sat", tc.b))
		if bad != tc.bad {
			t.Errorf("%s: %d rows out of bounds, want %d\n%s", tc.name, bad, tc.bad, strings.Join(rows, "\n"))
		}
		// read_p50_ms is on neither side: no row for it.
		if len(rows) != 5 {
			t.Errorf("%s: %d rows, want 2 gated + lat_p99_ms (not gated) + failed_share + wrong_results", tc.name, len(rows))
		}
	}
	if _, bad := compareReports(gates, a, &report{}); bad != 1 {
		t.Errorf("a workload missing from B must be out of bounds")
	}
}

// BENCHMARK.json and the tables in spec.go must say the same thing: the
// driver reads the one, the program prints the other.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6 (%v)", len(keys), err)
	}
	if strings.Join(bj.Command, " ") != "bash benchmark/run.sh" || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("command %q paths %q", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	// The driver runs the workloads listed, a subset of the six in the
	// program's order.
	next := 0
	for _, w := range bj.Workloads {
		for next < len(specs) && specs[next].Name != w.Name {
			next++
		}
		if next == len(specs) {
			t.Fatalf("workload %q is not one of the program's, or out of order", w.Name)
		}
		if w.Why != specs[next].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why %q does not match the program's", w.Name, w.Why)
		}
	}
	if len(bj.Workloads) < 2 {
		t.Errorf("%d workloads listed, the driver wants at least 2", len(bj.Workloads))
	}
	// Every metric the program names is listed once, gated or not, with the
	// program's unit and direction; only a gated one has a bound.
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		defs[d.Name] = d
	}
	listed := map[string]bool{}
	if len(bj.EndToEnd) == 0 {
		t.Fatal("no gated metric")
	}
	for _, g := range bj.EndToEnd {
		if d := (metricDef{g.Name, g.Unit, g.Better}); d != defs[g.Name] || g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("end_to_end %+v: want %+v with a bound in (0, 0.25]", g, defs[g.Name])
		}
		listed[g.Name] = true
	}
	for _, p := range bj.PerLayer {
		if p != defs[p.Name] || listed[p.Name] {
			t.Errorf("per_layer %+v: want %+v, listed once", p, defs[p.Name])
		}
		listed[p.Name] = true
	}
	if len(listed) != len(defs) {
		t.Errorf("%d metrics listed, the program names %d", len(listed), len(defs))
	}
	if last := bj.EndToEnd[len(bj.EndToEnd)-1]; last.Name != "setup_s" {
		t.Errorf("the last gated metric is %s, want setup_s", last.Name)
	}
}
