package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Experiments maps experiment IDs to their drivers. SoakRuns parameterizes
// T5 (0 = default).
func Experiments(soakRuns int) map[string]func() *Result {
	return map[string]func() *Result{
		"T1":  Frontier,
		"T2":  Coverage,
		"T3":  Recovery,
		"T3b": DurableRecovery,
		"T4":  LowerBounds,
		"T5":  func() *Result { return SoakTable(soakRuns) },
		"T6":  ModelCheck,
		"T7":  ChaosSoak,
		"F1":  LatencyVsCrashes,
		"F2":  LatencyVsConflicts,
		"F3":  WAN,
		"F4b": HotPath,
		"F5":  Placement,
		"F7":  func() *Result { return Sessions(0) },
		"F8":  GroupScaling,
		"F9":  ReadMix,
		"F10": func() *Result { return WANSuite(DefaultWANSuiteOptions()) },
		"A1":  Ablation,
	}
}

// ExperimentIDs returns the experiment identifiers in canonical order.
func ExperimentIDs() []string {
	ids := make([]string, 0, 12)
	for id := range Experiments(0) {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Tables first (T*), then figures (F*), then ablations (A*).
		rank := func(s string) int {
			switch s[0] {
			case 'T':
				return 0
			case 'F':
				return 1
			default:
				return 2
			}
		}
		if rank(ids[i]) != rank(ids[j]) {
			return rank(ids[i]) < rank(ids[j])
		}
		// Numeric-aware within a rank so F10 sorts after F9, not after F1.
		ni, nj := idNum(ids[i]), idNum(ids[j])
		if ni != nj {
			return ni < nj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// idNum extracts the numeric part of an experiment ID ("F10" → 10,
// "T3b" → 3) for canonical ordering.
func idNum(id string) int {
	n := 0
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// RunAll executes every experiment in canonical order, writing each table
// to w as it completes, and returns the results.
func RunAll(w io.Writer, soakRuns int) []*Result {
	exps := Experiments(soakRuns)
	results := make([]*Result, 0, len(exps))
	for _, id := range ExperimentIDs() {
		start := time.Now()
		res := exps[id]()
		results = append(results, res)
		if w != nil {
			if _, err := res.WriteTo(w); err != nil {
				fmt.Fprintf(w, "(write %s: %v)\n", id, err)
			}
			fmt.Fprintf(w, "_%s completed in %s_\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return results
}
