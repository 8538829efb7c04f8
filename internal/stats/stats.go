// Package stats provides the aggregation and text rendering used by the
// experiment harness: harmonic means (the paper's Figure-14 aggregate),
// relative-IPC comparisons, and simple aligned tables with ASCII bar charts
// standing in for the paper's bar figures. Rendering appends to a []byte:
// numbers go through AppendFixed, which prints exactly what fmt's %.<n>f
// does without strconv's multi-precision path.
package stats

import (
	"io"
	"math"
)

// HarmonicMean returns the harmonic mean of xs (0 if empty or if any value
// is nonpositive, NaN, or infinite, all of which would make the mean
// undefined).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ArithmeticMean returns the mean of xs (0 if empty or if any value is NaN
// or infinite).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		s += x
	}
	return s / float64(len(xs))
}

// GeometricMeanRatio returns the geometric mean of pairwise ratios a[i]/b[i].
// It is the conventional way to summarize "machine A is X% faster than B"
// across benchmarks.
func GeometricMeanRatio(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	prod := 1.0
	for i := range a {
		if b[i] <= 0 || a[i] <= 0 ||
			math.IsNaN(a[i]) || math.IsInf(a[i], 0) ||
			math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			return 0
		}
		prod *= a[i] / b[i]
	}
	return math.Pow(prod, 1/float64(len(a)))
}

// AppendBar appends an ASCII bar proportional to value/max, width
// characters at full scale.
func AppendBar(dst []byte, value, max float64, width int) []byte {
	if max <= 0 || value <= 0 || width <= 0 {
		return dst
	}
	n := int(value/max*float64(width) + 0.5)
	for range min(n, width) {
		dst = append(dst, '#')
	}
	return dst
}

// Table is a simple aligned text table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	_, err := w.Write(t.Append(nil))
	return err
}

// Append appends the table's text to dst: the header row, a rule of dashes
// and the rows, each cell left-justified to its column's widest cell (in
// bytes) and separated by two spaces, with trailing spaces cut from every
// line. A row longer than the header pads its extra cells to the last
// column's width.
func (t *Table) Append(dst []byte) []byte {
	var buf [16]int
	widths := buf[:0]
	for _, h := range t.Headers {
		widths = append(widths, len(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	dst = appendLine(dst, t.Headers, widths)
	start := len(dst)
	for i, n := range widths {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		for range n {
			dst = append(dst, '-')
		}
	}
	dst = endLine(dst, start)
	for _, row := range t.Rows {
		dst = appendLine(dst, row, widths)
	}
	return dst
}

// appendLine appends one table line of cells padded to widths.
func appendLine(dst []byte, cells []string, widths []int) []byte {
	start := len(dst)
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		width := 0
		if len(widths) > 0 {
			width = widths[min(i, len(widths)-1)]
		}
		dst = AppendLeft(dst, c, width)
	}
	return endLine(dst, start)
}

// endLine cuts trailing spaces from the line begun at start and ends it.
func endLine(dst []byte, start int) []byte {
	for len(dst) > start && dst[len(dst)-1] == ' ' {
		dst = dst[:len(dst)-1]
	}
	return append(dst, '\n')
}
