package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/protocols"
)

// shortWANSuite runs the CI-sized F10 sweep once for the tests that read it.
var shortWANSuite = sync.OnceValue(func() *Result { return WANSuite(ShortWANSuiteOptions()) })

// TestWANSuiteShortShape runs the CI-sized F10 sweep (Mesh fabric,
// compressed delays) and checks that every cell produced per-region
// statistics, nothing errored, and the measured latencies respect the
// analytical quorum floor.
func TestWANSuiteShortShape(t *testing.T) {
	if testing.Short() {
		t.Skip("F10 short still sleeps real scaled WAN delays")
	}
	opts := ShortWANSuiteOptions()
	res := shortWANSuite()
	rows := res.Typed.([]WANSuiteRow)
	if len(rows) != len(opts.Topologies)*len(opts.Sweeps)*len(opts.Protocols) {
		t.Fatalf("rows = %d, want %d", len(rows),
			len(opts.Topologies)*len(opts.Sweeps)*len(opts.Protocols))
	}
	for _, row := range rows {
		if row.Err != "" {
			t.Errorf("%s/%s: %s", row.Topology, row.Protocol, row.Err)
			continue
		}
		if row.Skip != "" {
			t.Errorf("%s/%s unexpectedly skipped: %s", row.Topology, row.Protocol, row.Skip)
			continue
		}
		if len(row.Regions) == 0 {
			t.Errorf("%s/%s: no regions measured", row.Topology, row.Protocol)
		}
		for _, reg := range row.Regions {
			if reg.Samples != opts.Samples {
				t.Errorf("%s/%s/%s: %d samples, want %d",
					row.Topology, row.Protocol, reg.Region, reg.Samples, opts.Samples)
			}
			// The measured median cannot beat the injected quorum floor
			// (floorMs is unscaled; the run compresses delays by Scale).
			if floor := float64(reg.FloorMs) * opts.Scale; reg.P50Ms < floor {
				t.Errorf("%s/%s/%s: p50 %.1fms below scaled floor %.1fms",
					row.Topology, row.Protocol, reg.Region, reg.P50Ms, floor)
			}
			if reg.SlowPathRate != 0 {
				t.Errorf("%s/%s/%s: slow-path rate %.2f in a healthy run",
					row.Topology, row.Protocol, reg.Region, reg.SlowPathRate)
			}
		}
	}
	// The short sweep pairs core-object against fastpaxos on spread7: the
	// C5 ordering must hold per proxy region shared by both deployments.
	byProto := map[string]WANSuiteRow{}
	for _, row := range rows {
		byProto[row.Protocol] = row
	}
	obj, fp := byProto[protocols.CoreObject], byProto[protocols.FastPaxos]
	fpByRegion := map[string]WANRegionStat{}
	for _, reg := range fp.Regions {
		fpByRegion[reg.Region] = reg
	}
	compared := 0
	for _, reg := range obj.Regions {
		fpReg, ok := fpByRegion[reg.Region]
		if !ok {
			continue
		}
		compared++
		if reg.P50Ms >= fpReg.P50Ms {
			t.Errorf("C5 violated at %s: object p50 %.1fms ≥ fastpaxos p50 %.1fms",
				reg.Region, reg.P50Ms, fpReg.P50Ms)
		}
	}
	if compared == 0 {
		t.Error("no shared proxy regions to compare")
	}
	// The rendered table mentions the fabric and carries one line per
	// (cell, region).
	if !strings.Contains(res.Title, "mesh") {
		t.Errorf("title %q does not name the fabric", res.Title)
	}
}

// TestEnvelopeOneShape writes a cells-only experiment and the typed-rows
// one through the one writer: same top-level keys, stamped.
func TestEnvelopeOneShape(t *testing.T) {
	if testing.Short() {
		t.Skip("F10 short still sleeps real scaled WAN delays")
	}
	want := []string{"id", "title", "commit", "go_version", "gomaxprocs", "generated_at", "params", "header", "rows"}
	for _, res := range []*Result{Frontier(), shortWANSuite()} {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var env map[string]json.RawMessage
		var st Stamp
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Commit == "" || st.GoVersion == "" || st.GOMAXPROCS < 1 || st.GeneratedAt == "" {
			t.Errorf("%s: unstamped envelope: %+v", res.ID, st)
		}
		for _, k := range want {
			if _, ok := env[k]; !ok {
				t.Errorf("%s: envelope lacks %q", res.ID, k)
			}
		}
		if len(env) != len(want) {
			t.Errorf("%s: envelope has %d top-level keys, want exactly %v", res.ID, len(env), want)
		}
	}
}
