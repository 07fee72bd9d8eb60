// Package metrics provides the evaluation arithmetic of Section 8
// (sensitivity, precision, false hit rate per equations 4-5) and small
// text renderers for the tables and figure data the experiment
// harness regenerates.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Confusion tallies true positives, false positives and false
// negatives.
type Confusion struct {
	TP, FP, FN int
}

// Sensitivity is TP/(TP+FN) (equation 4). Returns 0 when undefined.
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Precision is TP/(TP+FP) (equation 5). Returns 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// FalseHitRate is FP/TP — "the average number of false hits for every
// true positive" used to evaluate D-SOFT filtration (Section 8).
// Returns +Inf when there are false hits but no true positives.
func (c Confusion) FalseHitRate() float64 {
	if c.TP == 0 {
		if c.FP == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(c.FP) / float64(c.TP)
}

// Add accumulates another confusion count.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// Table renders rows of cells with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned text table.
func (t *Table) Render() string {
	all := append([][]string{t.Header}, t.Rows...)
	widths := make([]int, 0)
	for _, row := range all {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named (x, y) data series for figure reproduction.
type Series struct {
	Name string
	X, Y []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// RenderSeries renders aligned columns of several series sharing X.
func RenderSeries(xLabel string, series ...*Series) string {
	var t Table
	t.Header = append(t.Header, xLabel)
	for _, s := range series {
		t.Header = append(t.Header, s.Name)
	}
	if len(series) == 0 {
		return t.Render()
	}
	for i := range series[0].X {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.4g", s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}
