// Quickstart: tune the number of parallel streams of a simulated WAN
// transfer with Nelder–Mead and compare against the Globus default.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dstune"
)

func main() {
	// A transfer from ANL to UChicago while 16 dgemm jobs hammer the
	// source's cores — the scenario where the paper's default
	// setting collapses.
	run := func(tuner string, policy dstune.RestartPolicy) *dstune.Trace {
		fabric, _, err := dstune.ANLtoUChicago().NewFabric(42)
		if err != nil {
			log.Fatal(err)
		}
		fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Cmp: 16}), nil)
		tr, err := fabric.NewTransfer(dstune.TransferConfig{
			Bytes:  dstune.Unbounded,
			Policy: policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := dstune.TunerConfig{
			Box:    dstune.MustBox([]int{1}, []int{128}),
			Start:  []int{2},
			Map:    dstune.MapNC(8), // tune concurrency, parallelism fixed at 8
			Budget: 900,             // seconds of (virtual) transfer time
		}
		trace, err := dstune.Run(context.Background(), tuner, cfg, tr)
		if err != nil {
			log.Fatal(err)
		}
		return trace
	}

	def := run("default", dstune.RestartOnChange)
	nm := run("nm-tuner", dstune.RestartEveryEpoch)

	fmt.Println("epoch  t(s)   nc   throughput (MB/s)")
	for _, r := range nm.Results {
		fmt.Printf("%5d  %4.0f  %3d   %8.1f\n",
			r.Epoch, r.Report.End, r.X[0], r.Report.Throughput/1e6)
	}
	fmt.Printf("\ndefault (nc=2, np=8): %7.1f MB/s\n", def.MeanThroughput()/1e6)
	fmt.Printf("nm-tuner:             %7.1f MB/s (%.1fx)\n",
		nm.MeanThroughput()/1e6, nm.MeanThroughput()/def.MeanThroughput())
}
