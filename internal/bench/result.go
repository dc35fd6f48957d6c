// Package bench is the evaluation harness for the paper's claims: it
// regenerates every table and figure in DESIGN.md §4 from the simulator,
// the scenario runner, the lower-bound constructions and (T3b, T7, F10)
// live hosts. Each experiment returns a Result that renders as an aligned
// ASCII table and, through WriteJSON, as BENCH_<ID>.json; cmd/bench runs
// them and writes EXPERIMENTS.md. The served KV stack is measured by
// benchmark/, not here.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Stamp says what a report was measured on, spelled as benchmark/main.go
// spells it.
type Stamp struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GeneratedAt string `json:"generated_at"`
}

// NewStamp stamps now: HEAD's short hash ("-dirty" when tracked files
// differ from it, "unknown" outside a git checkout), the toolchain and the
// core count.
func NewStamp() Stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=7", "--exclude=*").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Stamp{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// Result is one regenerated table or figure, and the one report envelope:
// every BENCH_<ID>.json is a Result as WriteJSON marshals it.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "T1", "F3").
	ID string `json:"id"`
	// Title is a one-line description.
	Title string `json:"title"`
	// Stamp is filled in by WriteJSON.
	Stamp
	// Params are the settings the rows were measured under, for the
	// experiments that have any (F10: transport, scale, samples, fsync).
	Params map[string]any `json:"params"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows are the data rows as rendered cells.
	Rows [][]string `json:"rows"`
	// Typed, when non-nil, is the same rows before rendering (F10's
	// []WANSuiteRow); the JSON form carries it as "rows" instead of the cells.
	Typed any `json:"-"`
	// Notes are free-form observations appended under the table.
	Notes []string `json:"-"`
}

// WriteJSON stamps the result and writes it as indented JSON — the only
// place a report is marshalled.
func (r *Result) WriteJSON(w io.Writer) error {
	r.Stamp = NewStamp()
	if r.Params == nil {
		r.Params = map[string]any{}
	}
	rows := any(r.Rows)
	if r.Typed != nil {
		rows = r.Typed
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	// The outer Rows shadows the embedded Result's.
	return enc.Encode(struct {
		*Result
		Rows any `json:"rows"`
	}{r, rows})
}

// AddRow appends a data row built from the stringified args.
func (r *Result) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	r.Rows = append(r.Rows, row)
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the result as an aligned text table.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)

	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = displayWidth(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && displayWidth(cell) > widths[i] {
				widths[i] = displayWidth(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - displayWidth(cell)
			}
			fmt.Fprintf(&b, " %s%s |", cell, strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	b.WriteString("|")
	for _, w := range widths {
		fmt.Fprintf(&b, "%s|", strings.Repeat("-", w+2))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", note)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV renders the result as RFC-4180 CSV (header row first), for
// feeding plots or spreadsheets.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// displayWidth approximates the printed width (runes, not bytes), so tables
// with ✓/✗ and Greek letters stay aligned.
func displayWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// mark renders a boolean as a check or cross.
func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// verdict renders expected-vs-got semantics: ✓ when got == want.
func verdict(got, want bool) string {
	if got == want {
		return mark(true)
	}
	return mark(false) + "?!"
}
