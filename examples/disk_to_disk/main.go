// Disk-to-disk: move a dataset of many small files (the paper's
// future-work item (1), following Yildirim et al.'s analysis of
// heterogeneous file sets) — over real sockets, from real files to
// real files. The dataset is materialized on disk and served through
// the file-backed source (the zero-copy sendfile pump where the
// platform has it); an in-process gridftpd persists every received
// frame under a sink directory and charges a per-file OPEN latency,
// the cost a remote endpoint pays in metadata lookups before a file's
// bytes can flow. Each file start must be acknowledged before its
// data is sent, so with pp=1 the transfer serializes on that latency;
// the pipelining parameter keeps pp file starts in flight and hides
// it. The tuner has three knobs: concurrency, parallelism, and
// pipelining.
//
// Run with: go run ./examples/disk_to_disk
package main

import (
	"context"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"time"

	"dstune"
)

func main() {
	srcDir, err := os.MkdirTemp("", "disk_to_disk_src")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(srcDir)
	sinkDir, err := os.MkdirTemp("", "disk_to_disk_sink")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(sinkDir)

	srv, err := dstune.ServeGridFTP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.SetFileLatency(15 * time.Millisecond)
	srv.SetSink(sinkDir)

	files := dstune.UniformDataset(20000, 64<<10)
	if err := dstune.MaterializeDataset(srcDir, files); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server on %s, 15ms per file start, sink %s\ndataset: %s under %s\n\n",
		srv.Addr(), sinkDir, files, srcDir)

	run := func(name string, maxPP int) *dstune.Trace {
		client, err := dstune.NewTransferClient(dstune.TransferClientConfig{
			Addr:        srv.Addr(),
			Dataset:     files,
			SourceDir:   srcDir,
			RequestSink: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer client.Stop()
		trace, err := dstune.Run(context.Background(), "cd-tuner", dstune.TunerConfig{
			Epoch:     0.25, // wall-clock seconds per control epoch
			Tolerance: 30,   // loopback timing is noisy
			Box:       dstune.MustBox([]int{1, 1, 1}, []int{4, 2, maxPP}),
			Start:     []int{2, 1, 1},
			Map:       dstune.MapNCNPPP(),
			Budget:    8, // wall-clock seconds per run
			Seed:      7,
		}, client)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\nepoch  (nc np pp)  MB/s    files  first-byte lag\n", name)
		for _, r := range trace.Results {
			fmt.Printf("%5d  %v  %7.2f  %5d  %11.0f ms\n",
				r.Epoch, r.X, r.Report.Throughput/1e6, r.Report.Files,
				r.Report.FirstByteLag*1e3)
		}
		fmt.Println()
		return trace
	}

	// Pinned pp=1 (the CLI's `-pp 1`, via a degenerate box here):
	// every file start pays the full 15 ms serially per stream, no
	// matter how nc and np move.
	pinned := run("pp pinned at 1", 1)
	// The third dimension unlocked: the coordinate walk raises pp
	// until the file latency is hidden behind data in flight.
	tuned := run("pp tuned (3-D)", 16)

	best := func(t *dstune.Trace) (x []int, mbs float64) {
		for _, r := range t.Results {
			if r.Report.Throughput/1e6 > mbs {
				x, mbs = r.X, r.Report.Throughput/1e6
			}
		}
		return
	}
	px, pBest := best(pinned)
	tx, tBest := best(tuned)
	fmt.Printf("best pinned epoch: %7.2f MB/s at %v\n", pBest, px)
	fmt.Printf("best tuned epoch:  %7.2f MB/s at %v — %.1fx\n", tBest, tx, tBest/pBest)
	fmt.Printf("files moved: %d pinned, %d tuned (of %d)\n",
		dstune.FilesMoved(pinned), dstune.FilesMoved(tuned), files.Count())

	// Receiver truth: the bytes are on the sink's disk, one directory
	// per transfer token.
	var sunkFiles, sunkBytes int64
	filepath.WalkDir(sinkDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if info, ierr := d.Info(); ierr == nil {
			sunkFiles++
			sunkBytes += info.Size()
		}
		return nil
	})
	fmt.Printf("persisted at the sink: %d files, %.1f MB\n", sunkFiles, float64(sunkBytes)/1e6)
}
