package report

import (
	"fmt"
	"io"
	"strings"
)

// Report assembles sections into one self-contained HTML page.
type Report struct {
	Title    string
	Subtitle string
	sections []string
}

// New returns an empty report.
func New(title, subtitle string) *Report {
	return &Report{Title: title, Subtitle: subtitle}
}

// AddHeading appends a section heading with optional prose.
func (r *Report) AddHeading(h, prose string) {
	s := fmt.Sprintf(`<h2>%s</h2>`, esc(h))
	if prose != "" {
		s += fmt.Sprintf(`<p class="prose">%s</p>`, esc(prose))
	}
	r.sections = append(r.sections, s)
}

// AddLine appends a line chart.
func (r *Report) AddLine(c *LineChart) { r.sections = append(r.sections, c.HTML()) }

// AddTable appends a plain data table.
func (r *Report) AddTable(header []string, rows [][]string) {
	var b strings.Builder
	b.WriteString(`<div class="chart"><table class="plain"><thead><tr>`)
	for _, h := range header {
		fmt.Fprintf(&b, `<th>%s</th>`, esc(h))
	}
	b.WriteString(`</tr></thead><tbody>`)
	for _, row := range rows {
		b.WriteString(`<tr>`)
		for _, cell := range row {
			fmt.Fprintf(&b, `<td>%s</td>`, esc(cell))
		}
		b.WriteString(`</tr>`)
	}
	b.WriteString(`</tbody></table></div>`)
	r.sections = append(r.sections, b.String())
}

// Render writes the complete HTML document.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">")
	b.WriteString(`<meta name="viewport" content="width=device-width, initial-scale=1">`)
	fmt.Fprintf(&b, `<title>%s</title>`, esc(r.Title))
	b.WriteString("<style>\n" + cssVars() + pageCSS + "</style></head><body>")
	fmt.Fprintf(&b, `<header><h1>%s</h1><p class="prose">%s</p></header><main>`,
		esc(r.Title), esc(r.Subtitle))
	for _, s := range r.sections {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	b.WriteString(`</main><div id="tooltip" hidden></div>`)
	b.WriteString("<script>\n" + hoverJS + "</script></body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// pageCSS is the chart chrome: recessive grid, thin marks, text in ink
// tokens, legend, and table views. Series colors appear only on
// marks and legend keys, never on text.
var pageCSS = `
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--page); color: var(--ink);
  font: 15px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header, main { max-width: 860px; margin: 0 auto; padding: 0 20px; }
header { padding-top: 28px; }
h1 { font-size: 24px; margin: 0 0 4px; }
h2 { font-size: 18px; margin: 36px 0 6px; }
.prose { color: var(--ink-2); margin: 4px 0 12px; max-width: 72ch; }
.chart {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 16px 10px; margin: 14px 0;
}
figure.chart { position: relative; }
figcaption .title { font-weight: 600; display: block; }
figcaption .subtitle { color: var(--ink-2); font-size: 13px; display: block; margin-bottom: 6px; }
svg { width: 100%; height: auto; display: block; outline: none; }
svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
svg text.tick { font-variant-numeric: tabular-nums; }
svg text.axis-label { fill: var(--ink-2); }
svg text.direct-label { fill: var(--ink-2); font-size: 12px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 2px 2px; font-size: 13px; color: var(--ink-2); }
.legend .key { display: inline-block; margin-right: 6px; vertical-align: middle; }
.legend .key-line { width: 16px; height: 2px; border-radius: 1px; }
details.table-view { margin-top: 8px; font-size: 13px; }
details.table-view summary { color: var(--ink-2); cursor: pointer; }
table { border-collapse: collapse; margin-top: 6px; width: 100%; }
th, td {
  text-align: right; padding: 3px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; }
table.plain { font-size: 14px; }
#tooltip {
  position: fixed; pointer-events: none; z-index: 10;
  background: var(--surface); border: 1px solid var(--border); border-radius: 8px;
  padding: 8px 10px; font-size: 12px; color: var(--ink-2);
  box-shadow: 0 2px 10px rgba(0,0,0,0.12); max-width: 260px;
}
#tooltip .row { display: flex; align-items: center; gap: 6px; white-space: nowrap; }
#tooltip .v { font-weight: 600; color: var(--ink); font-variant-numeric: tabular-nums; }
#tooltip .k { display: inline-block; width: 12px; height: 2px; border-radius: 1px; }
.crosshair { stroke: var(--axis); stroke-width: 1; }
`

// hoverJS is the shared hover layer: a crosshair+tooltip on every
// chart, driven by the pointer and the arrow keys. The crosshair and the
// tooltip's x row snap to the sample nearest the pointer, as the table
// view's rows are samples: Figure 1's reads an nc it ran. Tooltips
// enhance, never gate — every value is also in the table view. All
// untrusted strings go through textContent.
const hoverJS = `
// nearestSample returns the x of the sample, of any series, nearest xv.
function nearestSample(series, xv) {
  var snap = xv, sd = Infinity;
  series.forEach(function (s) {
    for (var i = 0; i < s.x.length; i++) {
      var dd = Math.abs(s.x[i] - xv);
      if (dd < sd) { sd = dd; snap = s.x[i]; }
    }
  });
  return snap;
}

// fmtX formats an x as the table view does: an integral one (an nc, a
// whole second) without decimals.
function fmtX(v) {
  return v === Math.trunc(v) ? v.toFixed(0) : fmtNum(v);
}

function fmtNum(v) {
  if (Math.abs(v) >= 100) return v.toFixed(0);
  if (Math.abs(v) >= 10) return v.toFixed(1);
  return v.toFixed(2);
}

(function () {
  var tip = document.getElementById('tooltip');
  function showTip(x, y, rows) {
    tip.textContent = '';
    rows.forEach(function (r) {
      var div = document.createElement('div');
      div.className = 'row';
      if (r.color) {
        var k = document.createElement('span');
        k.className = 'k';
        k.style.background = r.color;
        div.appendChild(k);
      }
      var v = document.createElement('span');
      v.className = 'v';
      v.textContent = r.value;
      div.appendChild(v);
      var n = document.createElement('span');
      n.textContent = r.name;
      div.appendChild(n);
      tip.appendChild(div);
    });
    tip.hidden = false;
    var w = tip.offsetWidth, h = tip.offsetHeight;
    var px = Math.min(x + 14, window.innerWidth - w - 8);
    var py = Math.max(8, y - h - 10);
    tip.style.left = px + 'px';
    tip.style.top = py + 'px';
  }
  function hideTip() { tip.hidden = true; }

  document.querySelectorAll('figure[data-kind="line"]').forEach(function (fig) {
    var svg = fig.querySelector('svg');
    var dataEl = fig.querySelector('.chart-data');
    if (!svg || !dataEl) return;
    var d = JSON.parse(dataEl.textContent);
    var ns = 'http://www.w3.org/2000/svg';
    var cross = document.createElementNS(ns, 'line');
    cross.setAttribute('class', 'crosshair');
    cross.setAttribute('y1', d.py0);
    cross.setAttribute('y2', d.py1);
    cross.style.display = 'none';
    svg.appendChild(cross);
    var vb = svg.viewBox.baseVal;
    var idx = -1;

    function dataX(clientX) {
      var r = svg.getBoundingClientRect();
      var sx = (clientX - r.left) / r.width * vb.width;
      return d.x0 + (sx - d.px0) / (d.px1 - d.px0) * (d.x1 - d.x0);
    }
    function render(xv, clientX, clientY) {
      xv = nearestSample(d.series, Math.max(d.x0, Math.min(d.x1, xv)));
      var px = d.px0 + (xv - d.x0) / (d.x1 - d.x0) * (d.px1 - d.px0);
      cross.setAttribute('x1', px);
      cross.setAttribute('x2', px);
      cross.style.display = '';
      var rows = [{value: fmtX(xv), name: d.xlabel}];
      d.series.forEach(function (s) {
        if (!s.x.length) return;
        var best = 0, bd = Infinity;
        for (var i = 0; i < s.x.length; i++) {
          var dd = Math.abs(s.x[i] - xv);
          if (dd < bd) { bd = dd; best = i; }
        }
        rows.push({value: fmtNum(s.y[best]), name: s.name, color: s.color});
      });
      showTip(clientX, clientY, rows);
    }
    svg.addEventListener('pointermove', function (ev) {
      render(dataX(ev.clientX), ev.clientX, ev.clientY);
    });
    svg.addEventListener('pointerleave', function () {
      cross.style.display = 'none';
      hideTip();
    });
    // Keyboard: arrows step through the first series' samples.
    svg.addEventListener('keydown', function (ev) {
      var grid = d.series.length ? d.series[0].x : [];
      if (!grid.length) return;
      if (ev.key === 'ArrowRight') idx = Math.min(grid.length - 1, idx + 1);
      else if (ev.key === 'ArrowLeft') idx = Math.max(0, idx - 1);
      else return;
      ev.preventDefault();
      var r = svg.getBoundingClientRect();
      render(grid[idx], r.left + r.width / 2, r.top + 40);
    });
    svg.addEventListener('blur', function () {
      cross.style.display = 'none';
      hideTip();
    });
  });
})();
`
