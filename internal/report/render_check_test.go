package report

import (
	"encoding/xml"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// extractSVGs pulls every <svg>…</svg> block out of rendered HTML.
func extractSVGs(html string) []string {
	var out []string
	rest := html
	for {
		i := strings.Index(rest, "<svg")
		if i < 0 {
			return out
		}
		j := strings.Index(rest[i:], "</svg>")
		if j < 0 {
			return out
		}
		out = append(out, rest[i:i+j+len("</svg>")])
		rest = rest[i+j:]
	}
}

// checkSVG asserts an SVG block is well-formed XML and all coordinate
// attributes are finite and within the viewBox (with slack for label
// overhang into the padding gutters).
func checkSVG(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	coordAttr := map[string]bool{
		"x": true, "y": true, "x1": true, "y1": true, "x2": true, "y2": true,
		"cx": true, "cy": true, "r": true,
	}
	numRe := regexp.MustCompile(`-?\d+(\.\d+)?`)
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(400, len(svg))])
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		for _, a := range se.Attr {
			if a.Name.Local == "points" || a.Name.Local == "d" {
				for _, m := range numRe.FindAllString(a.Value, -1) {
					v, err := strconv.ParseFloat(m, 64)
					if err != nil || v < -200 || v > chartW+200 {
						t.Fatalf("path/points coordinate %q out of range in <%s>", m, se.Name.Local)
					}
				}
				if strings.Contains(a.Value, "NaN") || strings.Contains(a.Value, "Inf") {
					t.Fatalf("non-finite coordinate in <%s %s>", se.Name.Local, a.Name.Local)
				}
				continue
			}
			if !coordAttr[a.Name.Local] {
				continue
			}
			v, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				t.Fatalf("attr %s=%q not numeric in <%s>", a.Name.Local, a.Value, se.Name.Local)
			}
			if v < -40 || v > chartW+40 {
				t.Fatalf("attr %s=%v outside the canvas in <%s>", a.Name.Local, v, se.Name.Local)
			}
		}
	}
}

// TestRenderedSVGsWellFormed renders representative charts — including
// degenerate shapes — and structurally validates every SVG. This
// stands in for the visual pass in a headless environment.
func TestRenderedSVGsWellFormed(t *testing.T) {
	r := New("check", "structural render check")
	r.AddLine(sampleLine())
	// Single flat series.
	r.AddLine(&LineChart{
		Title: "flat", YLabel: "MB/s",
		Series: []LineSeries{{Name: "only", X: []float64{0, 10, 20}, Y: []float64{5, 5, 5}}},
	})
	// Converging series (end labels collide -> legend fallback).
	r.AddLine(&LineChart{
		Title: "converge", YLabel: "MB/s",
		Series: []LineSeries{
			{Name: "a", X: []float64{0, 10}, Y: []float64{100, 200}},
			{Name: "b", X: []float64{0, 10}, Y: []float64{300, 201}},
		},
	})
	// Ragged series lengths.
	r.AddLine(&LineChart{
		Title: "ragged", YLabel: "MB/s",
		Series: []LineSeries{
			{Name: "long", X: []float64{0, 10, 20, 30}, Y: []float64{1, 2, 3, 4}},
			{Name: "short", X: []float64{0, 10}, Y: []float64{4, 3}},
		},
	})
	// Figure 1's shape: two series of medians over nc = 1, 2, 4, …, 512.
	sweep := &LineChart{Title: "sweep", YLabel: "MB/s", XLabel: "nc"}
	for _, name := range []string{"free", "loaded"} {
		s := LineSeries{Name: name}
		for i := 0; i < 10; i++ {
			s.X = append(s.X, float64(int(1)<<i))
			s.Y = append(s.Y, float64(len(name)*(i+1)))
		}
		sweep.Series = append(sweep.Series, s)
	}
	r.AddLine(sweep)
	// A near-zero series beside a large one.
	r.AddLine(&LineChart{
		Title: "tiny", YLabel: "MB/s", XLabel: "nc",
		Series: []LineSeries{
			{Name: "v", X: []float64{1, 2}, Y: []float64{0.001, 0.002}},
			{Name: "w", X: []float64{1, 2}, Y: []float64{100, 90}},
		},
	})

	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	svgs := extractSVGs(buf.String())
	if len(svgs) != 6 {
		t.Fatalf("extracted %d SVGs, want 6", len(svgs))
	}
	for i, s := range svgs {
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkSVG(t, s) })
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEndLabelCollisionFallsBack verifies the converging-series case
// drops direct labels rather than stacking them.
func TestEndLabelCollisionFallsBack(t *testing.T) {
	c := &LineChart{
		Title: "converge", YLabel: "MB/s",
		Series: []LineSeries{
			{Name: "alpha-series", X: []float64{0, 10}, Y: []float64{100, 200}},
			{Name: "beta-series", X: []float64{0, 10}, Y: []float64{300, 202}},
		},
	}
	h := c.HTML()
	if strings.Contains(h, `class="direct-label">alpha-series`) {
		t.Fatal("colliding end labels were rendered anyway")
	}
	// Identity still carried by the legend.
	if !strings.Contains(h, `class="legend"`) {
		t.Fatal("no legend to fall back on")
	}
}
