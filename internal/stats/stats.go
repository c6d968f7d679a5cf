// Package stats provides the small numeric helpers and text-table
// rendering used by the experiment harness.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// MinInt64 returns the minimum of xs; it panics on empty input.
func MinInt64(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: MinInt64 of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Table renders rows of cells as an aligned fixed-width text table with a
// header row.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			width := len(c)
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", width, c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	var sep []string
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		_, err := fmt.Fprintln(w, strings.Join(cells, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
