package report

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Chart geometry shared by the figures.
const (
	chartW = 760
	chartH = 300
	padL   = 64  // y-axis band
	padR   = 120 // end-label gutter
	padT   = 18
	padB   = 40 // x-axis band — included in the fixed height
)

// LineSeries is one series of a line chart. X and Y must have equal
// length; series in one chart may have different X grids (e.g. a
// transfer that finished early).
type LineSeries struct {
	Name string
	X, Y []float64
}

// LineChart is a multi-series line chart with a hover crosshair, a
// legend (for two or more series), selective direct end-labels, and a
// table view.
type LineChart struct {
	Title  string
	YLabel string
	XLabel string
	Series []LineSeries
}

// jsonPayload is the data handed to the hover layer.
type jsonPayload struct {
	Kind   string       `json:"kind"`
	X0     float64      `json:"x0"`
	X1     float64      `json:"x1"`
	PX0    float64      `json:"px0"`
	PX1    float64      `json:"px1"`
	PY0    float64      `json:"py0"`
	PY1    float64      `json:"py1"`
	YLabel string       `json:"ylabel"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Name  string    `json:"name"`
	Color string    `json:"color"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// HTML renders the chart as a <figure>.
func (c *LineChart) HTML() string {
	slots := assignSlots(seriesNames(c.Series))

	// Domains.
	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		minX, maxX, maxY = 0, 1, 1
	}
	yTicks := niceTicks(0, maxY)
	yTop := yTicks[len(yTicks)-1]
	plotX0, plotX1 := float64(padL), float64(chartW-padR)
	plotY0, plotY1 := float64(padT), float64(chartH-padB)

	var svg svgBuilder
	// Gridlines: hairline, solid, recessive; y ticks in muted ink.
	for _, t := range yTicks {
		y := scale(t, 0, yTop, plotY1, plotY0)
		svg.linef(plotX0, y, plotX1, y, `stroke="var(--grid)" stroke-width="1"`)
		svg.text(plotX0-8, y+4, "end", "tick", compact(t))
	}
	// Baseline and x ticks.
	svg.linef(plotX0, plotY1, plotX1, plotY1, `stroke="var(--axis)" stroke-width="1"`)
	for _, t := range niceTicks(minX, maxX) {
		if t < minX-1e-9 || t > maxX+1e-9 {
			continue
		}
		x := scale(t, minX, maxX, plotX0, plotX1)
		svg.text(x, plotY1+18, "middle", "tick", compact(t))
	}
	if c.XLabel != "" {
		svg.text((plotX0+plotX1)/2, float64(chartH)-6, "middle", "axis-label", c.XLabel)
	}
	if c.YLabel != "" {
		svg.text(plotX0-8, plotY0-4, "end", "axis-label", c.YLabel)
	}

	// Series lines + end dots.
	var ends []endInfo
	payload := jsonPayload{
		Kind: "line", X0: minX, X1: maxX,
		PX0: plotX0, PX1: plotX1, PY0: plotY0, PY1: plotY1,
		YLabel: c.YLabel,
	}
	for i, s := range c.Series {
		color := colorVar(slots[i])
		xs := make([]float64, len(s.X))
		ys := make([]float64, len(s.Y))
		for j := range s.X {
			xs[j] = scale(s.X[j], minX, maxX, plotX0, plotX1)
			ys[j] = scale(s.Y[j], 0, yTop, plotY1, plotY0)
		}
		if len(xs) > 0 {
			svg.polyline(xs, ys, color)
			svg.endDot(xs[len(xs)-1], ys[len(ys)-1], color)
			ends = append(ends, endInfo{name: s.Name, x: xs[len(xs)-1], y: ys[len(ys)-1]})
		}
		payload.Series = append(payload.Series, jsonSeries{
			Name: s.Name, Color: color, X: s.X, Y: s.Y,
		})
	}

	// Direct end labels — only when they don't collide; the legend
	// always carries identity for multi-series charts anyway.
	if len(c.Series) <= 4 && !collide(ends) {
		for _, e := range ends {
			svg.text(e.x+10, e.y+4, "start", "direct-label", e.name)
		}
	}

	// Crosshair + focus overlay live in the hover layer (JS).
	data, _ := json.Marshal(payload)

	var b strings.Builder
	b.WriteString(`<figure class="chart" data-kind="line">`)
	writeHeading(&b, c.Title, "")
	fmt.Fprintf(&b,
		`<svg viewBox="0 0 %d %d" role="img" aria-label="%s" tabindex="0">%s</svg>`,
		chartW, chartH, esc(c.Title), svg.String())
	fmt.Fprintf(&b, `<script type="application/json" class="chart-data">%s</script>`,
		string(data))
	if len(c.Series) >= 2 {
		b.WriteString(legend(seriesNames(c.Series), slots, "line"))
	}
	b.WriteString(lineTable(c))
	b.WriteString(`</figure>`)
	return b.String()
}

// endInfo locates a series' final point for direct labelling.
type endInfo struct {
	name string
	x, y float64
}

// collide reports whether any two end labels would overlap
// vertically at the shared right edge.
func collide(ends []endInfo) bool {
	for i := 0; i < len(ends); i++ {
		for j := i + 1; j < len(ends); j++ {
			if math.Abs(ends[i].y-ends[j].y) < 14 {
				return true
			}
		}
	}
	return false
}

// seriesNames extracts the names of line series.
func seriesNames(ss []LineSeries) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// compact renders an axis tick value: clean numbers, thousands kept
// short.
func compact(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fnum(v/1e6) + "M"
	case av >= 1e4:
		return fnum(v/1e3) + "k"
	default:
		return fnum(v)
	}
}

// writeHeading emits the figure title/subtitle block.
func writeHeading(b *strings.Builder, title, subtitle string) {
	fmt.Fprintf(b, `<figcaption><span class="title">%s</span>`, esc(title))
	if subtitle != "" {
		fmt.Fprintf(b, `<span class="subtitle">%s</span>`, esc(subtitle))
	}
	b.WriteString(`</figcaption>`)
}

// legend renders the identity legend; kind "line" uses a short
// line-key stroke, "bar" a small rect swatch.
func legend(names []string, slots []int, kind string) string {
	var b strings.Builder
	b.WriteString(`<div class="legend">`)
	for i, n := range names {
		key := fmt.Sprintf(`<span class="key key-%s" style="background:%s"></span>`, kind, colorVar(slots[i]))
		fmt.Fprintf(&b, `<span class="entry">%s%s</span>`, key, esc(n))
	}
	b.WriteString(`</div>`)
	return b.String()
}

// lineTable renders the table-view twin of a line chart.
func lineTable(c *LineChart) string {
	var b strings.Builder
	b.WriteString(`<details class="table-view"><summary>Table view</summary><table><thead><tr><th>` +
		esc(firstNonEmpty(c.XLabel, "x")) + `</th>`)
	for _, s := range c.Series {
		fmt.Fprintf(&b, `<th>%s</th>`, esc(s.Name))
	}
	b.WriteString(`</tr></thead><tbody>`)
	// Row per x of the longest series; series with other grids show
	// their nearest sample.
	longest := 0
	for i, s := range c.Series {
		if len(s.X) > len(c.Series[longest].X) {
			longest = i
		}
	}
	if len(c.Series) > 0 {
		for _, x := range c.Series[longest].X {
			fmt.Fprintf(&b, `<tr><td>%s</td>`, fnum(x))
			for _, s := range c.Series {
				if v, ok := nearestY(s, x); ok {
					fmt.Fprintf(&b, `<td>%s</td>`, fnum(v))
				} else {
					b.WriteString(`<td>—</td>`)
				}
			}
			b.WriteString(`</tr>`)
		}
	}
	b.WriteString(`</tbody></table></details>`)
	return b.String()
}

// nearestY returns the series value at the sample nearest to x,
// provided it is within half the series' median step.
func nearestY(s LineSeries, x float64) (float64, bool) {
	if len(s.X) == 0 {
		return 0, false
	}
	best, bd := 0, math.Inf(1)
	for i, sx := range s.X {
		if d := math.Abs(sx - x); d < bd {
			best, bd = i, d
		}
	}
	step := math.Inf(1)
	if len(s.X) > 1 {
		step = (s.X[len(s.X)-1] - s.X[0]) / float64(len(s.X)-1)
	}
	if bd > step*0.75 {
		return 0, false
	}
	return s.Y[best], true
}

// firstNonEmpty returns the first non-empty string.
func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}
