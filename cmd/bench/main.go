// Command bench regenerates every table and figure of the reproduction
// (DESIGN.md §4) and prints them as markdown tables. With -out it also
// writes the report to a file (make report rewrites the generated half of
// EXPERIMENTS.md this way).
//
// Usage:
//
//	bench                        # run everything
//	bench -exp T1,F3             # run selected experiments
//	bench -soak-runs 500         # deeper T5 campaign
//	bench -out EXPERIMENTS.md    # additionally write a file
//	bench -exp T1,F10 -json .    # additionally write BENCH_T1.json, BENCH_F10.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

// reportMarker heads the generated half of EXPERIMENTS.md: -out keeps a
// file's text up to and including this line and replaces what follows.
const reportMarker = "\n# Generated report\n"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		soakRuns = flag.Int("soak-runs", 150, "runs per row for the T5 soak campaign")
		outPath  = flag.String("out", "", "also write the report to this file, below its \"# Generated report\" line if it has one")
		csvDir   = flag.String("csv", "", "also write each experiment as <dir>/<ID>.csv")
		jsonDir  = flag.String("json", "", "also write each experiment as <dir>/BENCH_<ID>.json")
		f10Short = flag.Bool("f10-short", false, "run F10 in its CI-sized short mode (Mesh fabric, compressed delays)")
	)
	flag.Parse()

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	exps := bench.Experiments(*soakRuns, *f10Short)
	if *expFlag != "" {
		var sel []bench.Experiment
		for _, raw := range strings.Split(*expFlag, ",") {
			exp, ok := findExp(exps, strings.TrimSpace(raw))
			if !ok {
				return fmt.Errorf("unknown experiment %q (have %s)", strings.TrimSpace(raw), expIDs(exps))
			}
			sel = append(sel, exp)
		}
		exps = sel
	}

	// The file form: what stdout gets, minus the per-experiment timings.
	var file bytes.Buffer
	out := io.MultiWriter(os.Stdout, &file)
	st := bench.NewStamp()
	fmt.Fprintf(out, "# Reproduction report — Revisiting Lower Bounds for Two-Step Consensus\n\n")
	fmt.Fprintf(out, "Generated %s at commit %s (%s, GOMAXPROCS %d) by `cmd/bench`. See DESIGN.md §4 for the experiment index.\n\n",
		st.GeneratedAt, st.Commit, st.GoVersion, st.GOMAXPROCS)

	for _, exp := range exps {
		start := time.Now()
		res := exp.Run()
		if _, err := res.WriteTo(out); err != nil {
			return err
		}
		fmt.Printf("_%s completed in %s_\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, exp.ID+".csv"), res.WriteCSV); err != nil {
				return err
			}
		}
		if *jsonDir != "" {
			if err := writeFile(filepath.Join(*jsonDir, "BENCH_"+exp.ID+".json"), res.WriteJSON); err != nil {
				return err
			}
		}
	}
	if *outPath == "" {
		return nil
	}
	var keep []byte
	if old, err := os.ReadFile(*outPath); err == nil {
		if i := bytes.Index(old, []byte(reportMarker)); i >= 0 {
			keep = append(old[:i+len(reportMarker)], '\n')
		}
	}
	return os.WriteFile(*outPath, append(keep, file.Bytes()...), 0o644)
}

// findExp matches a user-supplied experiment id case-insensitively against
// the registry (ids like "T3b" are mixed-case).
func findExp(exps []bench.Experiment, raw string) (bench.Experiment, bool) {
	for _, exp := range exps {
		if strings.EqualFold(exp.ID, raw) {
			return exp, true
		}
	}
	return bench.Experiment{}, false
}

func expIDs(exps []bench.Experiment) string {
	ids := make([]string, len(exps))
	for i, exp := range exps {
		ids[i] = exp.ID
	}
	return strings.Join(ids, " ")
}

// writeFile creates path and hands it to one of a Result's writers.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
