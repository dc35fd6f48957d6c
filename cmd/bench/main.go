// Command bench regenerates every table and figure of the reproduction
// (DESIGN.md §4) and prints them as markdown tables. With -out it also
// writes the report to a file (EXPERIMENTS.md is produced this way).
//
// Usage:
//
//	bench                 # run everything
//	bench -exp T1,F3      # run selected experiments
//	bench -soak-runs 500  # deeper T5 campaign
//	bench -out report.md  # additionally write a file
//	bench -exp F8 -json . # additionally write BENCH_F8.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

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
		outPath  = flag.String("out", "", "also write the report to this file")
		csvDir   = flag.String("csv", "", "also write each experiment as <dir>/<ID>.csv")
		jsonDir  = flag.String("json", "", "also write each experiment that has a machine-readable report as <dir>/BENCH_<ID>.json")
		f10Short = flag.Bool("f10-short", false, "run F10 in its CI-sized short mode (Mesh fabric, compressed delays)")
		pipeline = flag.Int("pipeline", 0, "session-client in-flight depth for F7's deep rows (0 = default 16)")
	)
	flag.Parse()

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	var out io.Writer = os.Stdout
	var f *os.File
	if *outPath != "" {
		var err error
		f, err = os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "# Reproduction report — Revisiting Lower Bounds for Two-Step Consensus\n\n")
	fmt.Fprintf(out, "Generated %s by `cmd/bench`. See DESIGN.md §4 for the experiment index.\n\n",
		time.Now().UTC().Format(time.RFC3339))

	exps := bench.Experiments(*soakRuns)
	// -pipeline and -f10-short apply wherever F7/F10 run, selected or not.
	exps["F7"] = func() *bench.Result { return bench.Sessions(*pipeline) }
	if *f10Short {
		exps["F10"] = func() *bench.Result { return bench.WANSuite(bench.ShortWANSuiteOptions()) }
	}
	ids := bench.ExperimentIDs()
	if *expFlag != "" {
		var sel []string
		for _, raw := range strings.Split(*expFlag, ",") {
			id, ok := resolveExpID(ids, strings.TrimSpace(raw))
			if !ok {
				return fmt.Errorf("unknown experiment %q (have %v)", strings.TrimSpace(raw), ids)
			}
			sel = append(sel, id)
		}
		ids = sel
	}
	for _, id := range ids {
		start := time.Now()
		res := exps[id]()
		if _, err := res.WriteTo(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "_%s completed in %s_\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, res); err != nil {
				return err
			}
		}
		if *jsonDir != "" && res.Report != nil {
			if err := writeReportJSON(filepath.Join(*jsonDir, "BENCH_"+id+".json"), res.Report); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveExpID matches a user-supplied experiment id case-insensitively
// against the registry (ids like "T3b" are mixed-case).
func resolveExpID(ids []string, raw string) (string, bool) {
	for _, id := range ids {
		if strings.EqualFold(id, raw) {
			return id, true
		}
	}
	return "", false
}

// writeReportJSON commits an experiment's report to disk with a generation
// timestamp ahead of its own fields, giving future changes a
// machine-readable perf trajectory to diff against.
func writeReportJSON(path string, report any) error {
	body, err := json.Marshal(report)
	if err != nil {
		return err
	}
	// Reports are structs, so body is an object: splice the stamp in as
	// its first field (anything else fails json.Indent below).
	stamp := fmt.Sprintf(`{"generatedAt":%q,`, time.Now().UTC().Format(time.RFC3339))
	var out bytes.Buffer
	if err := json.Indent(&out, append([]byte(stamp), body[1:]...), "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	return os.WriteFile(path, out.Bytes(), 0o644)
}

func writeCSV(dir, id string, res *bench.Result) error {
	f, err := os.Create(dir + "/" + id + ".csv")
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteCSV(f)
}
