package main

import (
	"fmt"
	"os"

	"dstune/internal/experiment"
	"dstune/internal/report"
	"dstune/internal/trace"
)

// lineSeries converts a trace series to a line series, dividing its
// values by scale (1e6 reads bytes per second as MB/s).
func lineSeries(s *trace.Series, scale float64) report.LineSeries {
	out := report.LineSeries{Name: s.Name}
	for _, p := range s.Points {
		out.X = append(out.X, p.T)
		out.Y = append(out.Y, p.V/scale)
	}
	return out
}

// writeHTML renders the studies' outcomes as one self-contained report:
// per study its charts, then its paper-vs-measured rows.
func writeHTML(path string, studies []experiment.Study, runs *experiment.Runs) error {
	rep := report.New(
		"dstune — Improving Data Transfer Throughput with Direct Search Optimization",
		"Reproduction report: the studies of the ICPP 2016 paper's evaluation regenerated on the simulated testbeds, "+
			"plus the implemented future-work extensions. Deterministic per seed; see EXPERIMENTS.md for the "+
			"paper-vs-measured record.")
	for _, s := range studies {
		out, err := s.Run(runs)
		if err != nil {
			return err
		}
		if len(out.Charts) == 0 && len(out.Rows) == 0 {
			continue
		}
		rep.AddHeading(s.Title, out.Config)
		for _, c := range out.Charts {
			if c.X == "" {
				line := &report.LineChart{Title: c.Title, YLabel: c.Unit, XLabel: "transfer time (s)"}
				for _, ser := range c.Series {
					line.Series = append(line.Series, lineSeries(ser, c.Scale()))
				}
				rep.AddLine(line)
				continue
			}
			// A categorical axis: one bar group per point of the first
			// series, one bar per series.
			bars := &report.BarChart{Title: c.Title, Subtitle: "by " + c.X, YLabel: c.Unit}
			for i, p := range c.Series[0].Points {
				grp := report.BarGroup{Label: fmt.Sprint(p.T)}
				for _, ser := range c.Series {
					grp.Values = append(grp.Values, ser.Points[i].V/c.Scale())
				}
				bars.Groups = append(bars.Groups, grp)
			}
			for _, ser := range c.Series {
				bars.SeriesNames = append(bars.SeriesNames, ser.Name)
			}
			rep.AddBar(bars)
		}
		var rows [][]string
		for _, w := range out.Rows {
			rows = append(rows, w.Cells())
		}
		if rows != nil {
			rep.AddTable(experiment.ScoreHeader, rows)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
