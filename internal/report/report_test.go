package report

import (
	"bytes"
	"math"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"
)

func sampleLine() *LineChart {
	return &LineChart{
		Title:  "Observed throughput",
		YLabel: "MB/s",
		XLabel: "transfer time (s)",
		Series: []LineSeries{
			{Name: "default", X: []float64{0, 30, 60}, Y: []float64{100, 150, 160}},
			{Name: "nm-tuner", X: []float64{0, 30, 60}, Y: []float64{100, 400, 650}},
		},
	}
}

func TestLineChartStructure(t *testing.T) {
	h := sampleLine().HTML()
	for _, want := range []string{
		"<figure", "<svg", "viewBox", "polyline", "chart-data",
		"Table view", "legend", "MB/s", "stroke-width=\"2\"",
		"<tr><td>30</td>", // an integral x reads without decimals
	} {
		if !strings.Contains(h, want) {
			t.Errorf("line chart HTML missing %q", want)
		}
	}
	// Legend present for two series; both names appear.
	if !strings.Contains(h, "default") || !strings.Contains(h, "nm-tuner") {
		t.Error("series names missing")
	}
}

func TestSingleSeriesHasNoLegend(t *testing.T) {
	c := sampleLine()
	c.Series = c.Series[:1]
	if strings.Contains(c.HTML(), `class="legend"`) {
		t.Error("single-series chart rendered a legend box")
	}
}

func TestEscaping(t *testing.T) {
	c := sampleLine()
	c.Title = `<script>alert("x")</script>`
	c.Series[0].Name = `<img onerror=1>`
	h := c.HTML()
	if strings.Contains(h, "<script>alert") || strings.Contains(h, "<img onerror") {
		t.Fatal("unescaped untrusted text in output")
	}
	if !strings.Contains(h, "&lt;script&gt;") {
		t.Fatal("title not escaped")
	}
}

func TestReportRender(t *testing.T) {
	r := New("dstune report", "paper vs measured")
	r.AddHeading("Figure 5", "observed throughput")
	r.AddLine(sampleLine())
	r.AddTable([]string{"scenario", "factor"}, [][]string{{"after the drop", "8.6x"}})
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "prefers-color-scheme: dark", "--s1:",
		"dstune report", "8.6x", "tooltip", "ArrowRight", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Balanced figure tags.
	if strings.Count(out, "<figure") != strings.Count(out, "</figure>") {
		t.Error("unbalanced <figure> tags")
	}
	if strings.Count(out, "<svg") != strings.Count(out, "</svg>") {
		t.Error("unbalanced <svg> tags")
	}
}

func TestNiceTicks(t *testing.T) {
	cases := []struct {
		max  float64
		last float64
		n    int
	}{
		{9, 10, 6},
		{4300, 5000, 6},
		{0.7, 0.8, 5},
		{100, 100, 5},
	}
	for _, c := range cases {
		ticks := niceTicks(0, c.max)
		if len(ticks) < 3 || len(ticks) > 7 {
			t.Errorf("niceTicks(0, %v) = %v: bad count", c.max, ticks)
		}
		if ticks[0] != 0 {
			t.Errorf("niceTicks(0, %v) starts at %v, want 0", c.max, ticks[0])
		}
		if last := ticks[len(ticks)-1]; last < c.max {
			t.Errorf("niceTicks(0, %v) tops at %v, below max", c.max, last)
		}
	}
}

func TestNiceTicksProperty(t *testing.T) {
	f := func(raw uint32) bool {
		max := float64(raw%1000000) + 0.5
		ticks := niceTicks(0, max)
		if len(ticks) < 2 {
			return false
		}
		// Monotone and covering.
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				return false
			}
		}
		return ticks[len(ticks)-1] >= max && ticks[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	if got := scale(5, 0, 10, 100, 200); got != 150 {
		t.Fatalf("scale = %v", got)
	}
	// Inverted range (screen y).
	if got := scale(0, 0, 10, 200, 100); got != 200 {
		t.Fatalf("scale inverted = %v", got)
	}
	// Degenerate domain.
	if got := scale(3, 7, 7, 0, 100); got != 50 {
		t.Fatalf("degenerate scale = %v", got)
	}
}

func TestAssignSlotsFixedEntities(t *testing.T) {
	slots := assignSlots([]string{"nm-tuner", "default", "mystery"})
	if slots[0] != 3 { // nm-tuner is always slot 4 (index 3)
		t.Errorf("nm-tuner slot = %d, want 3", slots[0])
	}
	if slots[1] != 0 {
		t.Errorf("default slot = %d, want 0", slots[1])
	}
	// Unknown name takes a free slot, not a duplicate.
	if slots[2] == slots[0] || slots[2] == slots[1] {
		t.Errorf("mystery reused a taken slot: %v", slots)
	}
}

func TestAssignSlotsStableAcrossFilters(t *testing.T) {
	// Removing a series must not repaint the survivors.
	full := assignSlots([]string{"default", "cd-tuner", "cs-tuner", "nm-tuner"})
	filtered := assignSlots([]string{"default", "nm-tuner"})
	if full[0] != filtered[0] || full[3] != filtered[1] {
		t.Errorf("colors changed when series were filtered: %v vs %v", full, filtered)
	}
}

func TestCollide(t *testing.T) {
	if collide([]endInfo{{y: 10}, {y: 40}}) {
		t.Error("separated labels flagged as colliding")
	}
	if !collide([]endInfo{{y: 10}, {y: 15}}) {
		t.Error("overlapping labels not flagged")
	}
}

func TestNearestY(t *testing.T) {
	s := LineSeries{X: []float64{0, 30, 60}, Y: []float64{1, 2, 3}}
	if v, ok := nearestY(s, 31); !ok || v != 2 {
		t.Fatalf("nearestY(31) = %v, %v", v, ok)
	}
	if _, ok := nearestY(s, 500); ok {
		t.Fatal("far x should not match")
	}
	if _, ok := nearestY(LineSeries{}, 0); ok {
		t.Fatal("empty series matched")
	}
}

func TestCompact(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		500:     "500",
		12000:   "12.0k",
		2500000: "2.50M",
	}
	for in, want := range cases {
		if got := compact(in); got != want {
			t.Errorf("compact(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFnumFinite(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 99.9, 1234.5, 0.001} {
		if fnum(v) == "" || math.IsNaN(v) {
			t.Fatalf("fnum(%v) empty", v)
		}
	}
}

// TestHoverNamesSample runs the hover layer's x row under node, where it
// is installed: a pointer between Figure 1's samples names the nc
// nearest it, not the x it interpolates, and a time grid's whole seconds
// read without decimals, as the table view's rows do.
func TestHoverNamesSample(t *testing.T) {
	node, err := exec.LookPath("node")
	if err != nil {
		t.Skip("node is not installed")
	}
	stub := `var document = {getElementById: function () { return {}; }, querySelectorAll: function () { return []; }};`
	probe := `
var fig1 = [{x: [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]}, {x: [1, 4, 16, 64, 256]}];
var time = [{x: [0, 30, 60]}];
console.log([nearestSample(fig1, 4.3), nearestSample(fig1, 37.4), nearestSample(fig1, 0.2),
  nearestSample(fig1, 600), nearestSample(time, 44), 2.5].map(fmtX).join(' '));`
	out, err := exec.Command(node, "-e", stub+hoverJS+probe).CombinedOutput()
	if err != nil {
		t.Fatalf("node: %v\n%s", err, out)
	}
	if got, want := strings.TrimSpace(string(out)), "4 32 1 512 30 2.50"; got != want {
		t.Errorf("tooltip x rows %q, want %q", got, want)
	}
}
