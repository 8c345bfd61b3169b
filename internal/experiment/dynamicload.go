package experiment

import (
	"fmt"
	"strings"

	"dstune/internal/load"
	"dstune/internal/tuner"
)

// DynamicLoadStudy judges the learned strategy where it should win:
// dynamic load. Direct search re-discovers the optimum from
// scratch after every ε-monitor retrigger, while a learned policy that
// has seen a load level before switches back to the winning vector on
// the next epoch. The study runs each tuner over step, square, and
// piecewise load schedules on one simulated testbed and scores two
// things per cell: integral throughput (payload actually moved over
// the whole run) and the re-adaptation lag after each load shift.
//
// Lag is measured against a shared yardstick, not against the cell's
// own recovery level — otherwise a tuner that never re-adapts would
// score a perfect lag by "reaching" its own collapsed throughput
// immediately. For each (schedule, shift) the yardstick is the best
// rolling-window throughput any tuner in the study achieved in that
// post-shift segment; a cell's lag is the index of its first epoch
// window at or above lagFrac of that, and a cell that never gets there
// is charged the full segment length.

// The lag yardstick's rolling-mean width in epochs, and the fraction of
// the segment's best window a cell must reach to count as re-adapted.
const (
	lagWindow = 3
	lagFrac   = 0.8
)

// DynamicSchedule pairs a named load schedule with the times its load
// shifts, so the harness knows where re-adaptation segments begin.
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

// DynamicLoadCell is one (tuner, schedule) run's scores.
type DynamicLoadCell struct {
	// Tuner and Schedule name the cell.
	Tuner, Schedule string
	// Bytes is the integral payload moved over the run.
	Bytes float64
	// Mean is the run's mean throughput in bytes/second.
	Mean float64
	// Lags holds the re-adaptation lag in epochs after each shift.
	Lags []int
	// MeanLag averages Lags (zero for shift-free schedules).
	MeanLag float64
	// Trace is the full tuning trajectory.
	Trace *tuner.Trace
}

// DynamicLoadResult is the study's outcome: one cell per (tuner,
// schedule) pair, schedule-major in the given orders.
type DynamicLoadResult struct {
	// Testbed names the simulated link.
	Testbed string
	// Cells holds every run's scores.
	Cells []DynamicLoadCell
}

// DynamicLoadConfig parameterizes DynamicLoadStudy beyond the shared
// RunConfig. The zero value selects the defaults.
type DynamicLoadConfig struct {
	// Run carries the shared harness knobs (seed, duration, epoch).
	Run RunConfig
	// Schedules defaults to DynamicSchedules(Run.Duration).
	Schedules []DynamicSchedule
}

// DynamicLoadStudy runs the dynamic-load comparison on tb: the paper's
// three direct searches and the learned rl-bandit, each crossed with
// every schedule, concurrency-only tuning (the paper's §IV-A box), each
// cell on its own identically-seeded fabric.
func DynamicLoadStudy(tb Testbed, cfg DynamicLoadConfig) (*DynamicLoadResult, error) {
	rc := cfg.Run.withDefaults()
	tuners := []string{"cd-tuner", "cs-tuner", "nm-tuner", "rl-bandit"}
	scheds := cfg.Schedules
	if len(scheds) == 0 {
		scheds = DynamicSchedules(rc.Duration)
	}

	res := &DynamicLoadResult{Testbed: tb.Name, Cells: make([]DynamicLoadCell, len(scheds)*len(tuners))}
	err := forEachCell(len(res.Cells), func(i int) error {
		sc := scheds[i/len(tuners)]
		name := tuners[i%len(tuners)]
		tr, err := runTuned(tb, name, sc.Sched, rc, false)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", name, sc.Name, err)
		}
		res.Cells[i] = DynamicLoadCell{
			Tuner:    name,
			Schedule: sc.Name,
			Bytes:    integralBytes(tr),
			Mean:     tr.MeanThroughput(),
			Trace:    tr,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Second pass: per (schedule, shift), establish the shared
	// yardstick — the best rolling-window mean any tuner reached in
	// the post-shift segment — then charge each cell its lag against
	// it.
	for si, sc := range scheds {
		cells := res.Cells[si*len(tuners) : (si+1)*len(tuners)]
		for shift, ts := range sc.Shifts {
			end := rc.Duration
			if shift+1 < len(sc.Shifts) {
				end = sc.Shifts[shift+1]
			}
			best := 0.0
			for ci := range cells {
				if p := peakWindow(segmentOf(cells[ci].Trace, ts, end), lagWindow); p > best {
					best = p
				}
			}
			for ci := range cells {
				seg := segmentOf(cells[ci].Trace, ts, end)
				cells[ci].Lags = append(cells[ci].Lags, segmentLag(seg, lagFrac*best, lagWindow))
			}
		}
		for ci := range cells {
			if n := len(cells[ci].Lags); n > 0 {
				sum := 0
				for _, l := range cells[ci].Lags {
					sum += l
				}
				cells[ci].MeanLag = float64(sum) / float64(n)
			}
		}
	}
	return res, nil
}

// segmentOf returns the epochs of tr that start within [from, to).
func segmentOf(tr *tuner.Trace, from, to float64) []tuner.EpochResult {
	const eps = 1e-9
	var seg []tuner.EpochResult
	for _, r := range tr.Results {
		if r.Report.Start >= from-eps && r.Report.Start < to-eps {
			seg = append(seg, r)
		}
	}
	return seg
}

// peakWindow is the best rolling-window throughput mean in seg (zero
// when seg is shorter than the window).
func peakWindow(seg []tuner.EpochResult, window int) float64 {
	best := 0.0
	for i := 0; i+window <= len(seg); i++ {
		best = max(best, tuner.WindowMean(seg[i:i+window]))
	}
	return best
}

// segmentLag is the index of the first epoch in seg opening a rolling
// window whose mean reaches target; a segment that never gets there —
// or is too short to hold one window — is charged its full length.
func segmentLag(seg []tuner.EpochResult, target float64, window int) int {
	if i := tuner.FirstWindow(seg, window, target); i >= 0 {
		return i
	}
	return len(seg)
}

// Report renders the study as an aligned text table: one row per
// cell, with integral volume, mean throughput, and the per-shift lag
// vector.
func (r *DynamicLoadResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DynamicLoadStudy %s (window=%d epochs, frac=%.2f)\n", r.Testbed, lagWindow, lagFrac)
	fmt.Fprintf(&b, "%-10s %-10s %12s %12s %8s  %s\n",
		"schedule", "tuner", "GB", "mean MB/s", "mean lag", "lags (epochs)")
	for _, c := range r.Cells {
		lags := "-"
		if len(c.Lags) > 0 {
			parts := make([]string, len(c.Lags))
			for i, l := range c.Lags {
				parts[i] = fmt.Sprintf("%d", l)
			}
			lags = strings.Join(parts, ",")
		}
		fmt.Fprintf(&b, "%-10s %-10s %12.1f %12.1f %8.1f  %s\n",
			c.Schedule, c.Tuner, c.Bytes/1e9, c.Mean/1e6, c.MeanLag, lags)
	}
	return b.String()
}
