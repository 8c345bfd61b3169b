package experiment

import (
	"fmt"
	"strings"

	"dstune/internal/load"
	"dstune/internal/tuner"
)

// The dynamic-load study judges the learned strategy where it should
// win: dynamic load. Direct search re-discovers the optimum from
// scratch after every ε-monitor retrigger, while a learned policy that
// has seen a load level before switches back to the winning vector on
// the next epoch. The study runs each tuner over step, square, and
// piecewise load schedules on one simulated testbed and scores two
// things per cell: integral throughput (payload actually moved over
// the whole run) and the re-adaptation lag after each load shift
// (shiftLags).

// DynamicSchedule pairs a named load schedule with the times its load
// shifts, so the study knows where re-adaptation segments begin.
type DynamicSchedule struct {
	// Name labels the schedule in reports ("step", "square", ...).
	Name string
	// Sched is the schedule driving the fabric's external load.
	Sched load.Schedule
	// Shifts are the virtual times at which the load changes. A
	// constant schedule has none.
	Shifts []float64
}

// DynamicSchedules returns the study's default schedules over a run of
// the given duration (seconds; zero selects the paper's 1800): a
// one-shot step from heavy to light external load at half-time, a
// square wave alternating the same two loads each quarter, a
// three-shift piecewise schedule mixing transfer and compute load, and
// a constant light-load control with no shifts (the tolerance band the
// acceptance test holds learned tuners to).
func DynamicSchedules(duration float64) []DynamicSchedule {
	if duration <= 0 {
		duration = 1800
	}
	q := duration / 4
	heavy := load.Load{Tfr: 64, Cmp: 16}
	light := load.Load{Tfr: 16, Cmp: 16}
	return []DynamicSchedule{
		{Name: "step", Sched: load.Step(2*q, heavy, light), Shifts: []float64{2 * q}},
		{Name: "square", Sched: load.Square(q, heavy, light), Shifts: []float64{q, 2 * q, 3 * q}},
		{Name: "piecewise", Sched: load.Piecewise(
			load.Segment{Start: 0, Load: light},
			load.Segment{Start: q, Load: heavy},
			load.Segment{Start: 2 * q, Load: load.Load{Cmp: 16}},
			load.Segment{Start: 3 * q, Load: heavy},
		), Shifts: []float64{q, 2 * q, 3 * q}},
		{Name: "constant", Sched: load.Constant(light)},
	}
}

// dynloadTuners are the dynamic-load study's tuners: the paper's three
// direct searches and the learned rl-bandit.
var dynloadTuners = []string{"cd-tuner", "cs-tuner", "nm-tuner", "rl-bandit"}

// dynloadStudy is the learned-vs-direct-search study on dynamic load;
// short, it leaves out the piecewise schedule.
func dynloadStudy(r *Runs, rc RunConfig, out *Outcome) error {
	var scheds []DynamicSchedule
	for _, sc := range DynamicSchedules(rc.Duration) {
		if !r.short() || sc.Name != "piecewise" {
			scheds = append(scheds, sc)
		}
	}
	return dynload(rc, scheds, out)
}

// dynload runs every dynloadTuners entry under every schedule, each
// cell on its own identically seeded ANL->UChicago fabric tuning
// concurrency only (the paper's §IV-A box), and writes into out one
// text row, trace and set of metrics per cell, schedule-major.
func dynload(rc RunConfig, scheds []DynamicSchedule, out *Outcome) error {
	tb, n := ANLtoUChicago(), len(dynloadTuners)
	traces := make([]*tuner.Trace, len(scheds)*n)
	err := forEachCell(len(traces), func(i int) error {
		sc, name := scheds[i/n], dynloadTuners[i%n]
		tr, err := runTuned(tb, name, sc.Sched, rc, false)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", name, sc.Name, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "DynamicLoadStudy %s (window=%d epochs, frac=%.2f)\n", tb.Name, lagWindow, lagFrac)
	fmt.Fprintf(&b, "%-10s %-10s %12s %12s %8s  %s\n",
		"schedule", "tuner", "GB", "mean MB/s", "mean lag", "lags (epochs)")
	for si, sc := range scheds {
		runs := traces[si*n : (si+1)*n]
		lags := shiftLags(runs, sc.Shifts, rc.Duration)
		for ci, tr := range runs {
			key := "dynload/" + sc.Name + "/" + dynloadTuners[ci]
			out.Traces[key] = tr
			gb := integralBytes(tr) / 1e9
			out.Metrics[key+"/GB"] = gb
			meanLag, shown := 0.0, "-"
			if len(lags[ci]) > 0 {
				sum, parts := 0, make([]string, len(lags[ci]))
				for i, l := range lags[ci] {
					sum += l
					parts[i] = fmt.Sprint(l)
				}
				meanLag, shown = float64(sum)/float64(len(lags[ci])), strings.Join(parts, ",")
				out.Metrics[key+"/mean-lag"] = meanLag
			}
			fmt.Fprintf(&b, "%-10s %-10s %12.1f %12.1f %8.1f  %s\n",
				sc.Name, dynloadTuners[ci], gb, tr.MeanThroughput()/1e6, meanLag, shown)
		}
	}
	out.Text = b.String()
	return nil
}
