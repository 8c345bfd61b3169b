package report

import (
	"fmt"
	"math"
	"strings"
)

// esc escapes text for HTML and SVG content and attributes. Series
// and scenario names are treated as untrusted data.
func esc(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;",
		"<", "&lt;",
		">", "&gt;",
		`"`, "&quot;",
		"'", "&#39;",
	)
	return r.Replace(s)
}

// fnum renders a float compactly for labels and tables.
func fnum(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// niceTicks returns 3-6 round tick values spanning [0|min, max] using
// the classic 1-2-5 progression. The range is expanded to include
// zero when min is non-negative (throughputs are anchored at a zero
// baseline).
func niceTicks(min, max float64) []float64 {
	if min > 0 {
		min = 0
	}
	if max <= min {
		max = min + 1
	}
	span := max - min
	rawStep := span / 4
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	var step float64
	switch {
	case rawStep/mag <= 1:
		step = mag
	case rawStep/mag <= 2:
		step = 2 * mag
	case rawStep/mag <= 5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	start := math.Floor(min/step) * step
	end := math.Ceil(max/step-1e-9) * step
	var ticks []float64
	for v := start; v <= end+step*1e-9; v += step {
		// Clean up float error near zero.
		if math.Abs(v) < step*1e-9 {
			v = 0
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// scale maps v linearly from [d0, d1] to [r0, r1].
func scale(v, d0, d1, r0, r1 float64) float64 {
	if d1 == d0 {
		return (r0 + r1) / 2
	}
	return r0 + (v-d0)/(d1-d0)*(r1-r0)
}

// svgBuilder accumulates SVG elements.
type svgBuilder struct {
	b strings.Builder
}

func (s *svgBuilder) linef(x1, y1, x2, y2 float64, style string) {
	fmt.Fprintf(&s.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" %s/>`, x1, y1, x2, y2, style)
}

func (s *svgBuilder) text(x, y float64, anchor, class, content string) {
	fmt.Fprintf(&s.b, `<text x="%.1f" y="%.1f" text-anchor="%s" class="%s">%s</text>`, x, y, anchor, class, esc(content))
}

func (s *svgBuilder) String() string { return s.b.String() }

// polyline renders a 2px round-capped series line through the points.
func (s *svgBuilder) polyline(xs, ys []float64, color string) {
	var pts strings.Builder
	for i := range xs {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", xs[i], ys[i])
	}
	fmt.Fprintf(&s.b,
		`<polyline points="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>`,
		pts.String(), color)
}

// endDot renders the series end marker: an 8px dot with a 2px
// surface ring so it stays legible over other lines.
func (s *svgBuilder) endDot(x, y float64, color string) {
	fmt.Fprintf(&s.b,
		`<circle cx="%.1f" cy="%.1f" r="4" fill="%s" stroke="var(--surface)" stroke-width="2"/>`,
		x, y, color)
}
