package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkJSON is BENCHMARK.json, the contract this benchmark is run by.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gate      `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// gate is one end-to-end metric's regression bound: the share of the
// baseline by which it may get worse.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a as a share of a, given which
// direction is better; negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and gated end-to-end metric, how far
// report B is from report A against the metric's bound in BENCHMARK.json —
// the only table of bounds there is — and fails when any row is out of
// bounds. failed_share and wrong_results are not ratios: both must be 0 on
// both sides.
func compareFiles(root, fileA, fileB string) error {
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		return err
	}
	a, err := loadReport(fileA)
	if err != nil {
		return err
	}
	b, err := loadReport(fileB)
	if err != nil {
		return err
	}
	rows, bad := compareReports(bj.EndToEnd, a, b)
	fmt.Printf("\ncompare A=%s (%s)  B=%s (%s)\n", fileA, a.Commit, fileB, b.Commit)
	fmt.Printf("%-16s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, r := range rows {
		fmt.Println(r)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d rows out of bounds", bad, len(rows))
	}
	fmt.Printf("all %d rows within bounds\n", len(rows))
	return nil
}

// compareReports gives one row per workload and end-to-end metric present
// on either side. A metric with a gate is held to its bound; failed_share and
// wrong_results must be 0; any other is shown with its difference and is
// never out of bounds.
func compareReports(gates []gate, a, b *report) (rows []string, bad int) {
	bound := map[string]float64{}
	for _, g := range gates {
		bound[g.Name] = g.Bound
	}
	byName := map[string]*workloadReport{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Workload] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := byName[wa.Workload]
		if !ok {
			rows = append(rows, fmt.Sprintf("%-16s missing from B", wa.Workload))
			bad++
			continue
		}
		for _, d := range endToEndDefs {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			mustBeZero := d.Name == "failed_share" || d.Name == "wrong_results"
			if !okA && !okB && !mustBeZero {
				continue // does not apply to this workload
			}
			worse := worseBy(va.Value, vb.Value, d.Better)
			limit, gated := bound[d.Name]
			diff, rule, verdict := fmt.Sprintf("%+.1f%%", 100*worse), "", "not gated"
			switch {
			case mustBeZero:
				diff, rule, verdict = "", "= 0", "ok"
				if va.Value != 0 || vb.Value != 0 {
					verdict = "OUT OF BOUNDS"
				}
			case gated:
				rule, verdict = fmt.Sprintf("%.0f%%", 100*limit), "ok"
				if okA != okB || worse > limit {
					verdict = "OUT OF BOUNDS"
				}
			}
			if verdict == "OUT OF BOUNDS" {
				bad++
			}
			rows = append(rows, fmt.Sprintf("%-16s %-16s %14.4f %14.4f %9s %7s  %s",
				wa.Workload, d.Name, va.Value, vb.Value, diff, rule, verdict))
		}
	}
	return rows, bad
}
