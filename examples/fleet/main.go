// Fleet: many tuned transfers in one process.
// Four transfers share the ANL source endpoint, each driven by its
// own tuning strategy on its own goroutine, as four independent tuner
// processes would be. One Fleet builds, runs and collects them; the
// shared fabric is all that couples them, advancing virtual time only
// when every transfer is inside its epoch.
//
// Run with: go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"

	"dstune"
)

func main() {
	tb := dstune.ANLtoUChicago()
	fabric, _, err := tb.NewFabric(7)
	if err != nil {
		log.Fatal(err)
	}

	// One session per tuner; all four transfers contend for the same
	// source host, so each tuner sees the others as external load.
	names := []string{"nm-tuner", "cs-tuner", "cd-tuner", "heur1"}
	cfg := dstune.TunerConfig{
		Box:   dstune.MustBox([]int{1}, []int{64}),
		Start: []int{2},
		Map:   dstune.MapNC(8),
	}
	var sessions []dstune.FleetSession
	for i, name := range names {
		scfg := cfg
		scfg.Seed = uint64(10 + i)
		strat, err := dstune.NewStrategy(name, scfg)
		if err != nil {
			log.Fatal(err)
		}
		transfer, err := fabric.NewTransfer(dstune.TransferConfig{
			Name: name, Bytes: dstune.Unbounded,
		})
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, dstune.FleetSession{
			Name:      name,
			Strategy:  strat,
			Transfers: []dstune.Transferer{transfer},
			Maps:      []dstune.ParamMap{scfg.Map},
		})
	}

	fleet := dstune.NewFleet(dstune.FleetConfig{Epoch: 30, Budget: 900}, sessions...)
	results, err := fleet.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("session     epochs   mean MB/s   final nc   bytes moved")
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("session %s failed: %v", r.Name, r.Err)
		}
		tr := r.Traces[0]
		fmt.Printf("%-10s  %6d  %10.1f  %9v  %12.0f\n",
			r.Name, len(tr.Results), tr.MeanThroughput()/1e6, tr.FinalX(), r.Bytes)
	}
	fmt.Println("\nall four tuners ran side by side in one Fleet, coupled only by the shared source")
}
