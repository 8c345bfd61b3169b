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

// warmKey is the history identity of one study cell: the testbed as
// endpoint, unbounded volume, and the external-load fingerprint.
func warmKey(tb Testbed, l load.Load) history.Key {
	return history.Key{
		Endpoint:  tb.Name,
		SizeClass: history.SizeClass(0),
		LoadClass: history.LoadClass(l.Tfr + l.Cmp),
	}
}

// warmStudy measures what the knowledge plane buys: for every (tuner,
// load) cell of {cs-tuner, cd-tuner} × WarmStartLoads it runs the tuner
// cold from the Globus defaults on ANL->UChicago, records the cold
// run's best epoch into a fresh in-memory history store, and reruns
// warm on an identically seeded fabric so the only difference is the
// starting vector. Both runs are judged against the same bar — the
// better of the two steady values, as measuring each against its own
// would flatter a cold run stuck on a bad plateau — by the epochs they
// take to reach its critical fraction (a run that never does counts
// every epoch it had) and by the bytes they move over the shared
// budget. The paper's "time to critical point" divides out the epoch
// length; counting epochs keeps the comparison exact across runs that
// share e. Cells are independent and run on the worker pool.
func warmStudy(_ *Runs, rc RunConfig, out *Outcome) error {
	tb := ANLtoUChicago()
	names, loads := []string{"cs-tuner", "cd-tuner"}, WarmStartLoads()
	runs := make([][2]*tuner.Trace, len(names)*len(loads))
	err := forEachCell(len(runs), func(i int) error {
		name, l := names[i/len(loads)], loads[i%len(loads)]
		sched := load.Constant(l)
		cold, err := runTuned(tb, name, sched, rc, false)
		if err != nil {
			return fmt.Errorf("cold %s under %s: %w", name, l, err)
		}
		x, tput, ok := cold.BestEpoch()
		if !ok {
			return fmt.Errorf("cold %s under %s produced no usable epoch", name, l)
		}
		store := history.NewMemStore()
		key := warmKey(tb, l)
		if err := store.Add(history.Record{
			Key: key, X: x, Throughput: tput,
			Tuner: name, Epochs: len(cold.Results),
		}); err != nil {
			return err
		}
		wcfg := rc.tunerCfg(false)
		wcfg.History, wcfg.HistoryKey = store, key
		warm, err := runTransfer(tb, name, sched, rc.Seed, xfer.TransferConfig{Bytes: xfer.Unbounded}, wcfg)
		if err != nil {
			return fmt.Errorf("warm %s under %s: %w", name, l, err)
		}
		runs[i] = [2]*tuner.Trace{cold, warm}
		return nil
	})
	if err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "warm-start study on %s\n", tb.Name)
	fmt.Fprintf(&b, "%-10s %-12s %-10s %12s %12s %14s %14s\n",
		"tuner", "load", "pred", "cold epochs", "warm epochs", "cold GB", "warm GB")
	for i, pair := range runs {
		name, l := names[i/len(loads)], loads[i%len(loads)]
		cold, warm := pair[0], pair[1]
		pred, _, _ := cold.BestEpoch()
		target := max(cold.SteadyMean(warmWindow), warm.SteadyMean(warmWindow))
		coldEpochs := segmentLag(cold.Results, warmFrac*target, warmWindow)
		warmEpochs := segmentLag(warm.Results, warmFrac*target, warmWindow)
		coldGB, warmGB := integralBytes(cold)/1e9, integralBytes(warm)/1e9
		fmt.Fprintf(&b, "%-10s %-12s %-10s %12d %12d %14.2f %14.2f\n",
			name, l.String(), fmt.Sprint(pred), coldEpochs, warmEpochs, coldGB, warmGB)
		p := fmt.Sprintf("warm/%s/tfr%d/", name, l.Tfr)
		out.Traces[p+"cold"], out.Traces[p+"warm"] = cold, warm
		out.Metrics[p+"cold-epochs"], out.Metrics[p+"warm-epochs"] = float64(coldEpochs), float64(warmEpochs)
		out.Metrics[p+"cold-GB"], out.Metrics[p+"warm-GB"] = coldGB, warmGB
	}
	out.Text = b.String()
	return nil
}
