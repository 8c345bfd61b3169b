// Package report renders experiment results as a single
// self-contained HTML file with inline SVG charts: multi-series line
// charts for the paper's time-series figures, grouped bars for the
// scenario comparisons, plain tables for the paper-vs-measured rows,
// and a table view twin for every chart.
//
// The visual method follows a validated design system: a fixed
// eight-slot categorical palette (checked for colorblind separation
// and surface contrast in both light and dark modes), thin marks,
// hairline solid gridlines, a legend for every multi-series chart with
// selective direct labels, hover crosshair/tooltips that enhance but
// never gate (every value is also in the table view), and dark mode as
// selected steps of the same hues rather than an automatic flip.
package report

import "fmt"

// series slot hexes — the validated categorical palette, light and
// dark steps of the same hues. Order is fixed; it is the
// colorblind-safety mechanism.
var (
	seriesLight = []string{
		"#2a78d6", // 1 blue
		"#1baf7a", // 2 aqua
		"#eda100", // 3 yellow
		"#008300", // 4 green
		"#4a3aa7", // 5 violet
		"#e34948", // 6 red
		"#e87ba4", // 7 magenta
		"#eb6834", // 8 orange
	}
	seriesDark = []string{
		"#3987e5", "#199e70", "#c98500", "#008300",
		"#9085e9", "#e66767", "#d55181", "#d95926",
	}
)

// slotFor fixes each known entity (tuner name) to a palette slot so
// its color never changes across figures or filters; unknown names
// take slots in order of first use within a chart.
var slotFor = map[string]int{
	"default":  0,
	"cd-tuner": 1,
	"cs-tuner": 2,
	"nm-tuner": 3,
	"heur1":    4,
	"heur2":    5,
	"model":    6,
	"UChicago": 0,
	"TACC":     1,
}

// cssVars emits the custom-property block: chart chrome plus the
// series slots, with the dark values behind prefers-color-scheme.
func cssVars() string {
	light := `  --surface: #fcfcfb;
  --page: #f9f9f7;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
`
	dark := `  --surface: #1a1a19;
  --page: #0d0d0d;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --axis: #383835;
  --border: rgba(255,255,255,0.10);
`
	out := ":root {\n" + light
	for i, c := range seriesLight {
		out += fmt.Sprintf("  --s%d: %s;\n", i+1, c)
	}
	out += "}\n@media (prefers-color-scheme: dark) {\n:root {\n" + dark
	for i, c := range seriesDark {
		out += fmt.Sprintf("  --s%d: %s;\n", i+1, c)
	}
	out += "}\n}\n"
	return out
}

// colorVar returns the CSS variable reference for slot i (0-based).
func colorVar(i int) string { return fmt.Sprintf("var(--s%d)", i%len(seriesLight)+1) }

// assignSlots maps series names to palette slots: known entities keep
// their fixed slot; the rest fill unused slots in order.
func assignSlots(names []string) []int {
	out := make([]int, len(names))
	used := map[int]bool{}
	for i, n := range names {
		if s, ok := slotFor[n]; ok {
			out[i] = s
			used[s] = true
		} else {
			out[i] = -1
		}
	}
	next := 0
	for i := range out {
		if out[i] >= 0 {
			continue
		}
		for used[next] {
			next++
		}
		out[i] = next % len(seriesLight)
		used[out[i]] = true
	}
	return out
}
