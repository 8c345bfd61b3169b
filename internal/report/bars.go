package report

import (
	"fmt"
	"math"
	"strings"
)

// BarGroup is one category of a grouped bar chart, with one value per
// series.
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart is a grouped column chart: thin bars with 4px rounded data
// ends, a 2px surface gap between adjacent bars, value labels at the
// tips, per-mark hover tooltips, and a table view.
type BarChart struct {
	Title       string
	Subtitle    string
	YLabel      string
	SeriesNames []string
	Groups      []BarGroup
}

// HTML renders the chart as a <figure>.
func (c *BarChart) HTML() string {
	slots := assignSlots(c.SeriesNames)
	maxY := 0.0
	for _, g := range c.Groups {
		for _, v := range g.Values {
			maxY = math.Max(maxY, v)
		}
	}
	yTicks := niceTicks(0, maxY)
	yTop := yTicks[len(yTicks)-1]
	plotX0, plotX1 := float64(padL), float64(chartW-24)
	plotY0, plotY1 := float64(padT), float64(chartH-padB)

	var svg svgBuilder
	for _, t := range yTicks {
		y := scale(t, 0, yTop, plotY1, plotY0)
		svg.linef(plotX0, y, plotX1, y, `stroke="var(--grid)" stroke-width="1"`)
		svg.text(plotX0-8, y+4, "end", "tick", compact(t))
	}
	svg.linef(plotX0, plotY1, plotX1, plotY1, `stroke="var(--axis)" stroke-width="1"`)
	if c.YLabel != "" {
		svg.text(plotX0-8, plotY0-4, "end", "axis-label", c.YLabel)
	}

	nG, nS := len(c.Groups), len(c.SeriesNames)
	if nG == 0 || nS == 0 {
		return ""
	}
	band := (plotX1 - plotX0) / float64(nG)
	const gap = 2.0 // surface gap between touching bars
	barW := math.Min(24, (band*0.6-gap*float64(nS-1))/float64(nS))
	groupW := barW*float64(nS) + gap*float64(nS-1)

	for gi, g := range c.Groups {
		gx := plotX0 + band*float64(gi) + (band-groupW)/2
		for si := 0; si < nS && si < len(g.Values); si++ {
			v := g.Values[si]
			x := gx + float64(si)*(barW+gap)
			y := scale(v, 0, yTop, plotY1, plotY0)
			h := plotY1 - y
			extra := fmt.Sprintf(
				`class="bar" tabindex="0" data-name="%s" data-label="%s" data-value="%s %s"`,
				esc(c.SeriesNames[si]), esc(g.Label), esc(fnum(v)), esc(c.YLabel))
			svg.roundTopBar(x, y, barW, h, colorVar(slots[si]), extra)
			// Value at the tip (small group counts keep this sparse).
			if nS*nG <= 12 {
				svg.text(x+barW/2, y-6, "middle", "direct-label", compact(v))
			}
		}
		svg.text(gx+groupW/2, plotY1+18, "middle", "tick", g.Label)
	}

	var b strings.Builder
	b.WriteString(`<figure class="chart" data-kind="bar">`)
	writeHeading(&b, c.Title, c.Subtitle)
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" role="img" aria-label="%s">%s</svg>`,
		chartW, chartH, esc(c.Title), svg.String())
	if nS >= 2 {
		b.WriteString(legend(c.SeriesNames, slots, "bar"))
	}
	b.WriteString(barTable(c))
	b.WriteString(`</figure>`)
	return b.String()
}

// barTable renders the table-view twin of a grouped bar chart.
func barTable(c *BarChart) string {
	var b strings.Builder
	b.WriteString(`<details class="table-view"><summary>Table view</summary><table><thead><tr><th></th>`)
	for _, n := range c.SeriesNames {
		fmt.Fprintf(&b, `<th>%s</th>`, esc(n))
	}
	b.WriteString(`</tr></thead><tbody>`)
	for _, g := range c.Groups {
		fmt.Fprintf(&b, `<tr><td>%s</td>`, esc(g.Label))
		for i := range c.SeriesNames {
			if i < len(g.Values) {
				fmt.Fprintf(&b, `<td>%s</td>`, fnum(g.Values[i]))
			} else {
				b.WriteString(`<td>—</td>`)
			}
		}
		b.WriteString(`</tr>`)
	}
	b.WriteString(`</tbody></table></details>`)
	return b.String()
}
