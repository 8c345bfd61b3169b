package experiment

import (
	"context"
	"fmt"

	"dstune/internal/directsearch"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// JointComparison holds the endpoint-level tuning study: the same
// two-transfer scenario as Figure 11 run twice — once with independent
// per-transfer tuners (as in the paper) and once with one joint
// direct search over both transfers' parameters (the paper's
// future-work item (4)).
type JointComparison struct {
	// Independent is the Figure 11 result: two tuners, each blind to
	// the other.
	Independent *SimultaneousResult
	// JointUChicago and JointTACC are the traces of the two transfers
	// under the single joint tuner.
	JointUChicago, JointTACC *tuner.Trace
}

// IndependentAggregate returns the independent runs' combined mean
// throughput.
func (j *JointComparison) IndependentAggregate() float64 {
	return j.Independent.UChicago.MeanThroughput() + j.Independent.TACC.MeanThroughput()
}

// JointAggregate returns the joint run's combined mean throughput.
func (j *JointComparison) JointAggregate() float64 {
	return j.JointUChicago.MeanThroughput() + j.JointTACC.MeanThroughput()
}

// JointVsIndependent runs the comparison with nm-tuner as the
// independent tuner and, as the coordinated one, a single nm-tuner over
// both transfers in one Fleet session ("joint-nm"), both tuning
// [nc, np] per transfer on the shared-NIC dual fabric.
func JointVsIndependent(rc RunConfig) (*JointComparison, error) {
	rc = rc.withDefaults()
	ind, err := Simultaneous("nm-tuner", rc)
	if err != nil {
		return nil, err
	}

	t1, t2, err := dualTransfers(rc.Seed, "joint-")
	if err != nil {
		return nil, err
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
		return nil, err
	}
	if err := results[0].Err; err != nil {
		return nil, err
	}
	traces := results[0].Traces
	return &JointComparison{
		Independent:   ind,
		JointUChicago: traces[0],
		JointTACC:     traces[1],
	}, nil
}

// Render formats the comparison.
func (j *JointComparison) Render() string {
	out := "Endpoint-level tuning — joint direct search vs independent tuners (future work 4)\n\n"
	out += fmt.Sprintf("independent: UChicago %7.1f MB/s  TACC %7.1f MB/s  aggregate %7.1f MB/s\n",
		j.Independent.UChicago.MeanThroughput()/1e6,
		j.Independent.TACC.MeanThroughput()/1e6,
		j.IndependentAggregate()/1e6)
	out += fmt.Sprintf("joint:       UChicago %7.1f MB/s  TACC %7.1f MB/s  aggregate %7.1f MB/s\n",
		j.JointUChicago.MeanThroughput()/1e6,
		j.JointTACC.MeanThroughput()/1e6,
		j.JointAggregate()/1e6)
	out += fmt.Sprintf("joint final params: uchicago x=%v, tacc x=%v\n",
		j.JointUChicago.FinalX(), j.JointTACC.FinalX())
	return out
}
