// Command plan is the deployment planner: given f, e and a formulation it
// reports how many replicas are needed and where to put them among the
// built-in cloud regions (or a custom matrix) to minimize client commit
// latency.
//
//	plan -f 2 -e 2                       # compare all formulations
//	plan -f 3 -e 2 -mode object          # one formulation, best placement
//	plan -f 2 -e 2 -objective max        # optimize the worst client region
//	plan -f 2 -e 2 -matrix sites.csv     # custom matrix: header row of
//	                                     # names, then RTT rows in ms
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/planner"
	"repro/internal/quorum"
	"repro/internal/wan"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fFlag     = flag.Int("f", 2, "resilience threshold f")
		eFlag     = flag.Int("e", 2, "fast threshold e")
		mode      = flag.String("mode", "", "object | task | lamport (default: compare all)")
		objective = flag.String("objective", "mean", "mean | max")
		matrix    = flag.String("matrix", "", "CSV file: header of site names, then RTT rows (ms)")
	)
	flag.Parse()

	sites, rtt, err := loadMatrix(*matrix)
	if err != nil {
		return err
	}
	req := planner.Request{
		F: *fFlag, E: *eFlag,
		Sites: sites, RTT: rtt,
	}
	switch *objective {
	case "mean":
		req.Objective = planner.MinimizeMean
	case "max":
		req.Objective = planner.MinimizeMax
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}

	fmt.Printf("candidate sites: %s\n\n", strings.Join(sites, ", "))

	if *mode != "" {
		m, err := parseMode(*mode)
		if err != nil {
			return err
		}
		req.Mode = m
		plan, err := planner.Solve(req)
		if err != nil {
			return err
		}
		printPlan(m, plan, req)
		return nil
	}

	plans, err := planner.Compare(req)
	if err != nil {
		return err
	}
	for _, m := range []quorum.Mode{quorum.Object, quorum.Task, quorum.Lamport} {
		if plan, ok := plans[m]; ok {
			printPlan(m, plan, req)
		} else {
			fmt.Printf("%-8s needs %d sites — does not fit\n", m, quorum.MinProcesses(m, req.F, req.E))
		}
	}
	return nil
}

func parseMode(s string) (quorum.Mode, error) {
	switch strings.ToLower(s) {
	case "object":
		return quorum.Object, nil
	case "task":
		return quorum.Task, nil
	case "lamport", "fastpaxos":
		return quorum.Lamport, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func printPlan(m quorum.Mode, plan planner.Plan, req planner.Request) {
	names := make([]string, len(plan.Replicas))
	for i, s := range plan.Replicas {
		names[i] = req.Sites[s]
	}
	fmt.Printf("%-8s n=%d  replicas: %s\n", m, plan.N, strings.Join(names, ", "))
	fmt.Printf("         mean proxy commit %.0f ms, worst %d ms\n", plan.MeanLatency, plan.MaxLatency)
	for _, site := range plan.Replicas {
		fmt.Printf("         proxy %-10s → %3d ms\n", req.Sites[site], plan.ProxyLatency[site])
	}
	fmt.Println()
}

// loadMatrix reads a CSV matrix, or returns the built-in 8-region one.
func loadMatrix(path string) ([]string, [][]consensus.Duration, error) {
	if path == "" {
		sites, rtt := wan.Sites()
		return sites, rtt, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(rows) < 2 {
		return nil, nil, fmt.Errorf("%s: need a header and at least one row", path)
	}
	sites := rows[0]
	n := len(sites)
	if len(rows)-1 != n {
		return nil, nil, fmt.Errorf("%s: %d sites but %d matrix rows", path, n, len(rows)-1)
	}
	rtt := make([][]consensus.Duration, n)
	for i, row := range rows[1:] {
		if len(row) != n {
			return nil, nil, fmt.Errorf("%s: row %d has %d cells, want %d", path, i+1, len(row), n)
		}
		rtt[i] = make([]consensus.Duration, n)
		for j, cell := range row {
			ms, err := strconv.Atoi(strings.TrimSpace(cell))
			if err != nil {
				return nil, nil, fmt.Errorf("%s: row %d col %d: %w", path, i+1, j, err)
			}
			rtt[i][j] = consensus.Duration(ms)
		}
	}
	return sites, rtt, nil
}
