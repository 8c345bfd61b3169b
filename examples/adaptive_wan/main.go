// Adaptive WAN transfer: external load on the source changes
// mid-transfer (the paper's §IV-B scenario) and the tuners re-adapt
// concurrency and parallelism, while the static default is stuck.
//
// Run with: go run ./examples/adaptive_wan
package main

import (
	"context"
	"fmt"
	"log"

	"dstune"
)

func main() {
	// ANL -> TACC, 1800 s. Heavy load (ext.tfr=64, ext.cmp=16) until
	// t=1000 s, then most of the traffic goes away.
	sched := dstune.StepLoad(1000,
		dstune.Load{Tfr: 64, Cmp: 16},
		dstune.Load{Tfr: 16, Cmp: 16})

	run := func(tuner string, policy dstune.RestartPolicy) *dstune.Trace {
		fabric, _, err := dstune.ANLtoTACC().NewFabric(7)
		if err != nil {
			log.Fatal(err)
		}
		fabric.SetLoad(sched, nil)
		tr, err := fabric.NewTransfer(dstune.TransferConfig{
			Bytes: dstune.Unbounded, Policy: policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		trace, err := dstune.Run(context.Background(), tuner, dstune.TunerConfig{
			Box:    dstune.MustBox([]int{1, 1}, []int{128, 16}),
			Start:  []int{2, 8},
			Map:    dstune.MapNCNP(), // tune both parameters
			Budget: 1800,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		return trace
	}

	def := run("default", dstune.RestartOnChange)
	cs := run("cs-tuner", dstune.RestartEveryEpoch)

	fmt.Println("phase                default MB/s   cs-tuner MB/s   gain")
	for _, ph := range []struct {
		name   string
		t0, t1 float64
	}{
		{"heavy load (0-1000s)", 0, 1000},
		{"light load (1000-1800s)", 1000, 1800},
	} {
		d := meanBetween(def, ph.t0, ph.t1)
		c := meanBetween(cs, ph.t0, ph.t1)
		fmt.Printf("%-22s %10.1f %15.1f %6.1fx\n", ph.name, d/1e6, c/1e6, c/d)
	}
	last := cs.Results[len(cs.Results)-1]
	fmt.Printf("\ncs-tuner finished at nc=%d np=%d\n", last.X[0], last.X[1])
}

// meanBetween averages the observed throughput of epochs ending in
// [t0, t1).
func meanBetween(tr *dstune.Trace, t0, t1 float64) float64 {
	var sum float64
	var n int
	for _, r := range tr.Results {
		if r.Report.End >= t0 && r.Report.End < t1 {
			sum += r.Report.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
