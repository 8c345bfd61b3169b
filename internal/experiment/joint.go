package experiment

import (
	"context"
	"fmt"

	"dstune/internal/directsearch"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// jointStudy is the endpoint-level tuning study: the same two-transfer
// scenario as Figure 11 run twice — once with independent per-transfer
// nm-tuners (as in the paper) and once with a single nm-tuner over both
// transfers in one Fleet session ("joint-nm", the paper's future-work
// item (4)), both tuning [nc, np] per transfer on the shared-NIC dual
// fabric.
func jointStudy(_ *Runs, rc RunConfig, out *Outcome) error {
	ind, err := Simultaneous("nm-tuner", rc)
	if err != nil {
		return err
	}

	t1, t2, err := dualTransfers(rc.Seed)
	if err != nil {
		return err
	}
	// One session, one search: nm-tuner over the concatenation of both
	// transfers' [nc, np], observing their aggregate throughput. The
	// first failed epoch of any kind ends it (MaxTransientFailures 1),
	// as a multi-transfer session has no checkpoint to resume from.
	start := xfer.Default()
	strat := tuner.NewNMStrategy(tuner.Config{
		Epoch: rc.Epoch,
		Seed:  rc.Seed,
		Box: directsearch.MustBox(
			[]int{1, 1, 1, 1},
			[]int{maxNC, maxNP, maxNC, maxNP}),
		Start: []int{start.NC, start.NP, start.NC, start.NP},
	})
	results, err := tuner.NewFleet(
		tuner.FleetConfig{Epoch: rc.Epoch, Budget: rc.Duration, MaxTransientFailures: 1},
		tuner.FleetSession{
			Name:      "joint-nm",
			Strategy:  strat,
			Transfers: []xfer.Transferer{t1, t2},
			Dims:      []int{2, 2},
			Maps:      []tuner.ParamMap{tuner.MapNCNP(), tuner.MapNCNP()},
		},
	).Run(context.Background())
	if err != nil {
		return err
	}
	if err := results[0].Err; err != nil {
		return err
	}
	joint := &SimultaneousResult{UChicago: results[0].Traces[0], TACC: results[0].Traces[1]}

	line := func(label string, res *SimultaneousResult) string {
		uc, tc := res.UChicago.MeanThroughput(), res.TACC.MeanThroughput()
		return fmt.Sprintf("%-13sUChicago %7.1f MB/s  TACC %7.1f MB/s  aggregate %7.1f MB/s\n",
			label, uc/1e6, tc/1e6, (uc+tc)/1e6)
	}
	out.Text = "Endpoint-level tuning — joint direct search vs independent tuners (future work 4)\n\n" +
		line("independent:", ind) + line("joint:", joint) +
		fmt.Sprintf("joint final params: uchicago x=%v, tacc x=%v\n", joint.UChicago.FinalX(), joint.TACC.FinalX())
	for name, tr := range map[string]*tuner.Trace{
		"independent/uchicago": ind.UChicago, "independent/tacc": ind.TACC,
		"joint/uchicago": joint.UChicago, "joint/tacc": joint.TACC,
	} {
		out.Traces["joint/"+name] = tr
		traceMetrics(out.Metrics, "joint/"+name, tr, 0)
	}
	out.Charts = []Chart{joint.chart("Joint tuning — one nm-tuner over both transfers")}
	return nil
}
