// Joint tuning: the paper's future-work item (4). Two transfers leave
// the same source; instead of two independent tuners that treat each
// other as external load (Figure 11), ONE direct search optimizes the
// concatenated vector [nc1, np1, nc2, np2] against the aggregate
// throughput, the sum of both transfers' rates: every byte counts the
// same, whichever path it leaves on.
//
// Run with: go run ./examples/joint_tuning
package main

import (
	"context"
	"fmt"
	"log"

	"dstune"
)

func main() {
	fabric, err := dstune.NewFabric(dstune.FabricConfig{
		Seed: 5,
		Source: dstune.HostConfig{
			Cores:        8,
			CorePumpRate: 1.3e9,
			NICRate:      5e9,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	p1, err := fabric.AddPath(dstune.ANLtoUChicago().Path)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := fabric.AddPath(dstune.ANLtoTACC().Path)
	if err != nil {
		log.Fatal(err)
	}
	t1, err := fabric.NewTransfer(dstune.TransferConfig{
		Bytes: dstune.Unbounded, Path: p1,
	})
	if err != nil {
		log.Fatal(err)
	}
	t2, err := fabric.NewTransfer(dstune.TransferConfig{
		Bytes: dstune.Unbounded, Path: p2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One Fleet session holding both transfers: nm-tuner proposes the
	// concatenated vector, Dims cuts it back into one slice per transfer,
	// and the strategy observes the summed aggregate. The first failed
	// epoch ends the run (MaxTransientFailures 1): a multi-transfer
	// session has no checkpoint to resume from.
	strategy, err := dstune.NewStrategy("nm-tuner", dstune.TunerConfig{
		Box: dstune.MustBox(
			[]int{1, 1, 1, 1},
			[]int{128, 16, 128, 16}),
		Start: []int{2, 8, 2, 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := dstune.NewFleet(
		dstune.FleetConfig{Budget: 1800, MaxTransientFailures: 1},
		dstune.FleetSession{
			Name:      "joint-nm",
			Strategy:  strategy,
			Transfers: []dstune.Transferer{t1, t2},
			Dims:      []int{2, 2},
			Maps:      []dstune.ParamMap{dstune.MapNCNP(), dstune.MapNCNP()},
		},
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := results[0].Err; err != nil {
		log.Fatal(err)
	}
	traces := results[0].Traces

	uc, tc := traces[0], traces[1]
	fmt.Println("joint nm search over [nc1 np1 nc2 np2], aggregate throughput")
	fmt.Printf("UChicago: %7.1f MB/s  final %v\n", uc.MeanThroughput()/1e6, uc.FinalX())
	fmt.Printf("TACC:     %7.1f MB/s  final %v\n", tc.MeanThroughput()/1e6, tc.FinalX())
	fmt.Printf("aggregate %7.1f of 5000 MB/s NIC\n",
		(uc.MeanThroughput()+tc.MeanThroughput())/1e6)
	fmt.Println("\ncompare: go run ./examples/simultaneous (independent tuners)")
}
