package experiment

import (
	"fmt"
	"strings"

	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// WarmStartLoads is the external-load sweep of the warm-start study:
// no load, then external traffic at 16, 32, and 64 streams.
func WarmStartLoads() []load.Load {
	return []load.Load{{}, {Tfr: 16}, {Tfr: 32}, {Tfr: 64}}
}

// The warm-start study's critical-point detector: a run has reached
// the critical point once a rolling mean over warmWindow epochs reaches
// warmFrac of its cell's target.
const (
	warmFrac   = 0.9
	warmWindow = 3
)

// WarmStartCell is one (tuner, load) cell of a warm-start study: a
// cold run from the Globus defaults, its best epoch recorded into a
// fresh history store, then a warm run on an identically seeded fabric
// that starts from the recorded optimum.
type WarmStartCell struct {
	Tuner string
	Load  load.Load
	// Pred is the historical prediction the warm run started from (the
	// cold run's best epoch vector).
	Pred []int
	// Target is the shared critical-point throughput both runs are
	// measured against: the better of the two runs' steady values.
	// Measuring each run against its own steady value would flatter a
	// cold run stuck on a bad plateau — it "converges" instantly to a
	// throughput the warm run far exceeds.
	Target float64
	// ColdEpochs and WarmEpochs count epochs until the rolling mean
	// throughput reaches the critical fraction of Target; a run that
	// never got there within budget reports its full epoch count.
	ColdEpochs, WarmEpochs int
	// ColdBytes and WarmBytes are the integral throughput of each run:
	// total bytes moved over the shared budget.
	ColdBytes, WarmBytes float64
	// Cold and Warm are the full traces.
	Cold, Warm *tuner.Trace
}

// WarmStartResult holds a warm-vs-cold study over a load sweep.
type WarmStartResult struct {
	Testbed string
	Cells   []WarmStartCell
}

// integralBytes is the integral of observed throughput over the run:
// total bytes moved.
func integralBytes(tr *tuner.Trace) float64 {
	var bytes float64
	for _, r := range tr.Results {
		bytes += r.Report.Bytes
	}
	return bytes
}

// warmKey is the history identity of one study cell: the testbed as
// endpoint, unbounded volume, and the external-load fingerprint.
func warmKey(tb Testbed, l load.Load) history.Key {
	return history.Key{
		Endpoint:  tb.Name,
		SizeClass: history.SizeClass(0),
		LoadClass: history.LoadClass(l.Tfr + l.Cmp),
	}
}

// WarmStartStudy measures what the knowledge plane buys: for every
// (tuner, load) cell of {cs-tuner, cd-tuner} × WarmStartLoads it runs
// the tuner cold from the Globus defaults, records the cold run's best
// epoch into a fresh in-memory history store, and reruns warm on an
// identically seeded fabric so the only difference is the starting
// vector. Cells are independent and run on the worker pool. The
// paper's "time to critical point" divides out the epoch length;
// counting epochs keeps the comparison exact across runs that share e.
func WarmStartStudy(tb Testbed, rc RunConfig) (*WarmStartResult, error) {
	names, loads := []string{"cs-tuner", "cd-tuner"}, WarmStartLoads()
	type cell struct {
		name string
		l    load.Load
	}
	cells := make([]cell, 0, len(names)*len(loads))
	for _, name := range names {
		for _, l := range loads {
			cells = append(cells, cell{name: name, l: l})
		}
	}
	out := make([]WarmStartCell, len(cells))
	err := forEachCell(len(cells), func(i int) error {
		c := cells[i]
		sched := load.Constant(c.l)
		cold, err := runTuned(tb, c.name, sched, rc, false)
		if err != nil {
			return fmt.Errorf("cold %s under %s: %w", c.name, c.l, err)
		}
		x, tput, ok := cold.BestEpoch()
		if !ok {
			return fmt.Errorf("cold %s under %s produced no usable epoch", c.name, c.l)
		}
		store := history.NewMemStore()
		key := warmKey(tb, c.l)
		if err := store.Add(history.Record{
			Key: key, X: x, Throughput: tput,
			Tuner: c.name, Epochs: len(cold.Results),
		}); err != nil {
			return err
		}
		wcfg := rc.withDefaults().tunerCfg(false)
		wcfg.History, wcfg.HistoryKey = store, key
		warm, err := runTransfer(tb, c.name, sched, rc.Seed, xfer.TransferConfig{Bytes: xfer.Unbounded}, wcfg)
		if err != nil {
			return fmt.Errorf("warm %s under %s: %w", c.name, c.l, err)
		}
		// Both runs are judged against the same bar — the better of
		// the two steady values — and a run that never reaches it
		// within budget counts as taking every epoch it had.
		target := max(cold.SteadyMean(warmWindow), warm.SteadyMean(warmWindow))
		out[i] = WarmStartCell{
			Tuner:      c.name,
			Load:       c.l,
			Pred:       x,
			Target:     target,
			ColdEpochs: segmentLag(cold.Results, warmFrac*target, warmWindow),
			WarmEpochs: segmentLag(warm.Results, warmFrac*target, warmWindow),
			ColdBytes:  integralBytes(cold),
			WarmBytes:  integralBytes(warm),
			Cold:       cold,
			Warm:       warm,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &WarmStartResult{Testbed: tb.Name, Cells: out}, nil
}

// Report renders the study as an aligned text table: one row per
// cell with epochs-to-critical and integral throughput, cold vs warm.
func (r *WarmStartResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm-start study on %s\n", r.Testbed)
	fmt.Fprintf(&b, "%-10s %-12s %-10s %12s %12s %14s %14s\n",
		"tuner", "load", "pred", "cold epochs", "warm epochs", "cold GB", "warm GB")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10s %-12s %-10s %12d %12d %14.2f %14.2f\n",
			c.Tuner, c.Load.String(), fmt.Sprint(c.Pred),
			c.ColdEpochs, c.WarmEpochs,
			c.ColdBytes/1e9, c.WarmBytes/1e9)
	}
	return b.String()
}
