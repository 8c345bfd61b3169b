// Loopback: tune a real-socket striped transfer. An in-process server
// discards what the client sends over 127.0.0.1; a shaper imposes the
// contention curve of a busy endpoint (per-connection rate falls with
// the square of the connection count), so an interior optimum exists
// for the tuner to find — here at about 6 connections.
//
// Run with: go run ./examples/loopback
package main

import (
	"context"
	"fmt"
	"log"

	"dstune"
)

func main() {
	srv, err := dstune.ServeGridFTP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server on %s\n", srv.Addr())

	shaper := &dstune.Shaper{Rate: 8e6, Quad: 1.0 / 36} // optimum ~6 conns
	client, err := dstune.NewTransferClient(dstune.TransferClientConfig{
		Addr:   srv.Addr(),
		Bytes:  dstune.Unbounded,
		Shaper: shaper,
	})
	if err != nil {
		log.Fatal(err)
	}

	trace, err := dstune.Run(context.Background(), "cs-tuner", dstune.TunerConfig{
		Epoch:     0.25, // wall-clock seconds per control epoch
		Tolerance: 30,   // loopback timing is noisy
		Lambda:    4,
		Box:       dstune.MustBox([]int{1}, []int{32}),
		Start:     []int{1},
		Map:       dstune.MapNC(1),
		Budget:    10, // wall-clock seconds total
		Seed:      1,
	}, client)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nepoch  conns  throughput (MB/s)")
	for _, r := range trace.Results {
		fmt.Printf("%5d  %5d  %9.2f\n", r.Epoch, r.X[0], r.Report.Throughput/1e6)
	}
	fmt.Printf("\nshaper optimum: %d connections; tuner finished at %d\n",
		shaper.Optimum(), trace.FinalX()[0])
}
