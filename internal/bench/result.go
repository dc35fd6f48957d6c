// Package bench is the evaluation harness: it regenerates every table and
// figure in DESIGN.md §4 from the simulator, the scenario runner, and the
// lower-bound constructions. Each experiment returns a Result that renders
// as an aligned ASCII table; cmd/bench runs them all and writes
// EXPERIMENTS.md.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "T1", "F3").
	ID string
	// Title is a one-line description.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
	// Notes are free-form observations appended under the table.
	Notes []string
	// Report, when non-nil, is the experiment's machine-readable form: a
	// JSON-ready struct that cmd/bench -json writes as BENCH_<ID>.json.
	Report any
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
