// Command benchmark is the repository's one repeatable benchmark of the
// stack cmd/kv serves. See README.md in this directory.
//
//	bash benchmark/run.sh [-workload W] [-seed N] [-window D] [-json FILE] [-repeat N]
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is one run of the benchmark over some or all workloads.
type report struct {
	Commit      string           `json:"commit"`
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NProc       int              `json:"nproc"`
	Seed        int64            `json:"seed"`
	WindowS     float64          `json:"window_s"`
	GeneratedAt string           `json:"generated_at"`
	Workloads   []workloadReport `json:"workloads"`
}

func run() error {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all six, each in its own child process)")
		seed     = flag.Int64("seed", 1, "drives key choice and the read/write coin, nothing else")
		window   = flag.Duration("window", 15*time.Second, "measured window with tracing off; warm-up (2/15) and the traced pass (6/15) scale with it")
		seconds  = flag.Int("seconds", 0, "the measured window in whole seconds (the driver's spelling of -window)")
		trace    = flag.Int("trace", -1, "driver mode: 0 = untraced window only, end-to-end metrics; 1 = traced pass and probes, per-layer metrics; the last output line is one JSON object")
		jsonOut  = flag.String("json", "", "write the full report to this file")
		repeat   = flag.Int("repeat", 1, "run everything this many times; with -json F.json writes F.1.json, F.2.json, … and compares the first with the last")
		compare  = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		child    = flag.Bool("child", false, "internal: run one workload in this process")
		mode     = flag.String("tracemode", traceBoth, "internal: child trace mode")
		out      = flag.String("out", "", "internal: child report file")
	)
	flag.Parse()
	if *seconds > 0 {
		*window = time.Duration(*seconds) * time.Second
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	}
	cfg := childConfig{
		Workload: *workload, Seed: *seed, Window: *window, Trace: *mode,
		Scratch:  filepath.Join(root, ".bench_build", "run"),
		TraceDir: filepath.Join(root, "benchmark", "out"),
	}
	if *child {
		rep, err := runChild(cfg)
		if err != nil {
			return err
		}
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		return os.WriteFile(*out, data, 0o644)
	}

	var names []string
	if *workload != "" {
		if _, err := specByName(*workload); err != nil {
			return err
		}
		names = []string{*workload}
	} else {
		for _, sp := range specs {
			names = append(names, sp.Name)
		}
	}
	switch *trace {
	case -1:
	case 0:
		cfg.Trace = traceOff
	case 1:
		cfg.Trace = traceOn
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *trace >= 0 && *workload == "" {
		return errors.New("-trace needs -workload")
	}

	var files []string
	wrong := false
	for r := 1; r <= *repeat; r++ {
		rep := newReport(root, cfg)
		fmt.Printf("commit=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d window=%v\n",
			rep.Commit, rep.GoVersion, rep.GOMAXPROCS, rep.NProc, rep.Seed, cfg.Window)
		for _, name := range names {
			cfg.Workload = name
			wr, err := spawnChild(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printWorkload(os.Stdout, wr)
			rep.Workloads = append(rep.Workloads, *wr)
			wrong = wrong || !wr.Correct
		}
		if *jsonOut != "" {
			file := *jsonOut
			if *repeat > 1 {
				file = strings.TrimSuffix(file, ".json") + fmt.Sprintf(".%d.json", r)
			}
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
				return err
			}
			files = append(files, file)
		}
		if *trace >= 0 {
			bj, err := loadBenchmarkJSON(root)
			if err != nil {
				return err
			}
			if err := printDriverLine(bj, &rep.Workloads[0], *trace == 1); err != nil {
				return err
			}
		}
	}
	if wrong {
		return errors.New("wrong_results > 0: an acknowledged write was lost or a read went backwards")
	}
	if len(files) > 1 {
		return compareFiles(root, files[0], files[len(files)-1])
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root, which
// is where BENCHMARK.json lives.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it: run from the repository")
		}
		dir = parent
	}
}

func newReport(root string, cfg childConfig) *report {
	commit := "unknown"
	if outp, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(outp))
	}
	return &report{
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.Seed, WindowS: cfg.Window.Seconds(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// spawnChild re-executes this binary for one workload, so every workload
// starts from a fresh heap and its peak RSS is its own.
func spawnChild(cfg childConfig) (*workloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return nil, err
	}
	outFile := filepath.Join(cfg.Scratch, fmt.Sprintf("report-%s-%d.json", cfg.Workload, os.Getpid()))
	defer os.Remove(outFile)
	cmd := exec.Command(self, "-child",
		"-workload", cfg.Workload,
		"-seed", fmt.Sprint(cfg.Seed),
		"-window", cfg.Window.String(),
		"-tracemode", cfg.Trace,
		"-out", outFile)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The child must not outlive this process, however it ends. The signal
	// is tied to the thread that forks, so that thread is kept.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		return nil, err
	}
	var wr workloadReport
	return &wr, json.Unmarshal(data, &wr)
}

// printWorkload prints every metric as "name value unit (n=samples)".
func printWorkload(w *os.File, wr *workloadReport) {
	fmt.Fprintf(w, "\n== %s  seed=%d  window=%.2fs traced=%.2fs  loop=%s  conns=%d depth=%d\n",
		wr.Workload, wr.Seed, wr.WindowS, wr.TracedS, wr.Loop, wr.Conns, wr.Depth)
	fmt.Fprintf(w, "   %s\n   %s\n", wr.Why, wr.Delay)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v  setup runs (s): %.3f\n",
		wr.Attempted, wr.Failed, wr.Correct, wr.SetupRunsS)
	for _, note := range wr.Notes {
		fmt.Fprintf(w, "   %s\n", note)
	}
	section := func(title string, defs []metricDef, m metrics) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, " %s\n", title)
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "   %-32s %14.4f %-6s (n=%d)\n", d.Name, v.Value, v.Unit, v.N)
			}
		}
	}
	section("end to end (tracing off)", endToEndDefs, wr.EndToEnd)
	section("per layer (traced pass, probes)", perLayerDefs, wr.PerLayer)
}

// printDriverLine prints the one JSON object the driver reads as the last
// line of output: the metrics BENCHMARK.json lists as end_to_end for an
// untraced run, as per_layer for a traced one (0 where a metric does not
// apply to the workload).
func printDriverLine(bj *benchmarkJSON, wr *workloadReport, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]value{}}
	if traced {
		for _, d := range bj.PerLayer {
			v, ok := wr.PerLayer[d.Name]
			if !ok {
				v = wr.EndToEnd[d.Name]
			}
			line.Metrics[d.Name] = value{v.Value, d.Unit}
		}
	} else {
		for _, d := range bj.EndToEnd {
			v, ok := wr.EndToEnd[d.Name]
			if !ok || v.Value == 0 {
				return fmt.Errorf("%s: no %s from this run (window too short for the percentile?)", wr.Workload, d.Name)
			}
			line.Metrics[d.Name] = value{v.Value, d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
