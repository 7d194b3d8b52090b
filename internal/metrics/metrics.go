// Package metrics provides the result-table machinery the experiment
// harness uses to print each paper figure as an aligned text series:
// one row per x-axis value, one column per compared scheme.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one experiment's result series.
type Table struct {
	// Title identifies the experiment (e.g. "Fig 5a — % collected vs
	// attributes per task").
	Title string
	// XLabel names the x axis.
	XLabel string
	// Columns names the compared schemes.
	Columns []string
	// Rows holds one entry per x value.
	Rows []Row
}

// Row is one x-axis point with one cell per column.
type Row struct {
	X     float64
	Cells []float64
}

// NewTable returns an empty table.
func NewTable(title, xLabel string, columns ...string) *Table {
	return &Table{Title: title, XLabel: xLabel, Columns: columns}
}

// Add appends a row; the number of cells must match the columns.
func (t *Table) Add(x float64, cells ...float64) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("metrics: row has %d cells, table has %d columns",
			len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, Row{X: x, Cells: cells})
	return nil
}

// Column returns the series of one column by name.
func (t *Table) Column(name string) ([]float64, bool) {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, false
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Cells[idx]
	}
	return out, true
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	header := make([]string, len(t.Columns)+1)
	header[0] = t.XLabel
	for i, c := range t.Columns {
		header[i+1] = c
		widths[i+1] = len(c)
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Cells)+1)
		cells[ri][0] = formatNum(r.X)
		for ci, v := range r.Cells {
			cells[ri][ci+1] = formatNum(v)
		}
		for ci, s := range cells[ri] {
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	if err := printRow(w, header, widths); err != nil {
		return err
	}
	for _, row := range cells {
		if err := printRow(w, row, widths); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// FprintCSV renders the table as CSV (title as a comment line), for
// plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	header := append([]string{t.XLabel}, t.Columns...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cells := make([]string, 0, len(r.Cells)+1)
		cells = append(cells, formatNum(r.X))
		for _, v := range r.Cells {
			cells = append(cells, formatNum(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

func printRow(w io.Writer, cells []string, widths []int) error {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = pad(c, widths[i])
	}
	_, err := fmt.Fprintln(w, strings.Join(parts, "  "))
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return strings.Repeat(" ", width-len(s)) + s
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of positive xs (0 if any value is
// non-positive or the input is empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Ratio returns 100·a/b as a percentage series, guarding zero
// denominators.
func Ratio(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if b[i] == 0 {
			out[i] = 0
			continue
		}
		out[i] = 100 * a[i] / b[i]
	}
	return out
}
