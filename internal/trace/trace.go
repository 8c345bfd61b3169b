// Package trace records named time series produced by transfers and
// tuners and renders them as CSV, aligned text tables, and ASCII
// sparklines for the experiment harnesses.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Point is one (time, value) sample.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is a named time series.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Last returns the final sample, or a zero Point when empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Mean returns the mean value, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// WriteCSV writes the series in long format (series,t,v), one row per
// sample, with a header.
func WriteCSV(w io.Writer, series ...*Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "t", "v"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.T, 'g', -1, 64),
				strconv.FormatFloat(p.V, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// sparkRunes are the eight block heights used by Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the series as a fixed-width ASCII sparkline by
// binning samples into width columns. NaN samples and empty columns
// render as spaces.
func Sparkline(s *Series, width int) string {
	if width <= 0 || len(s.Points) == 0 {
		return ""
	}
	t0 := s.Points[0].T
	t1 := s.Points[len(s.Points)-1].T
	if t1 <= t0 {
		t1 = t0 + 1
	}
	sums := make([]float64, width)
	counts := make([]int, width)
	for _, p := range s.Points {
		if math.IsNaN(p.V) {
			continue
		}
		b := int(float64(width) * (p.T - t0) / (t1 - t0))
		if b >= width {
			b = width - 1
		}
		if b < 0 {
			b = 0
		}
		sums[b] += p.V
		counts[b]++
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, width)
	for i := range vals {
		if counts[i] == 0 {
			vals[i] = math.NaN()
			continue
		}
		vals[i] = sums[i] / float64(counts[i])
		lo = math.Min(lo, vals[i])
		hi = math.Max(hi, vals[i])
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", width)
	}
	var b strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int(float64(len(sparkRunes)-1) * (v - lo) / (hi - lo))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Table renders rows as an aligned text table with the given header.
// All rows must have the same number of columns as the header; short
// rows are padded with empty cells.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// MBs formats a bytes-per-second rate as MB/s with one decimal, the
// unit used throughout the paper's figures.
func MBs(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f", bytesPerSec/1e6)
}
