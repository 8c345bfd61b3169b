package xfer

import (
	"context"
	"testing"

	"dstune/internal/dataset"
	"dstune/internal/endpoint"
	"dstune/internal/netem"
)

// diskTransfer builds a disk-to-disk transfer on the standard test
// fabric, whose 1.25 GB/s path the 2 GB/s storage array never binds.
func diskTransfer(t *testing.T, seed uint64, d dataset.Dataset) *Sim {
	t.Helper()
	f, _ := testFabric(t, seed)
	return diskTransferOn(t, f, d)
}

// diskTransferOn builds a disk-to-disk transfer on f's first path that
// restarts only on a parameter change.
func diskTransferOn(t *testing.T, f *Fabric, d dataset.Dataset) *Sim {
	t.Helper()
	tr, err := f.NewTransfer(TransferConfig{Name: "disk", Files: d, Policy: RestartOnChange})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDiskTransferCompletes(t *testing.T) {
	d := dataset.Uniform(20, 50<<20) // 20 x 50 MB = 1 GB
	tr := diskTransfer(t, 1, d)
	if tr.Remaining() != float64(d.TotalBytes()) {
		t.Fatalf("Remaining = %v, want %v", tr.Remaining(), d.TotalBytes())
	}
	var bytes float64
	files := 0
	for i := 0; i < 100; i++ {
		r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4, PP: 4}, 5)
		if err != nil {
			t.Fatal(err)
		}
		bytes += r.Bytes
		files += r.Files
		if r.Done {
			if files != 20 {
				t.Fatalf("completed %d files, want 20", files)
			}
			if diff := bytes - float64(d.TotalBytes()); diff > 1 || diff < -1 {
				t.Fatalf("moved %v bytes, want %v", bytes, d.TotalBytes())
			}
			if tr.Remaining() != 0 {
				t.Fatalf("Remaining = %v after done", tr.Remaining())
			}
			return
		}
	}
	t.Fatal("disk transfer never completed")
}

func TestPipeliningHelpsSmallFiles(t *testing.T) {
	// 400 x 1 MB files with 0.5 s per-file request latency: at pp=1
	// each file pays the full round trip; pp=8 amortizes it.
	measure := func(pp int) float64 {
		d := dataset.ManySmall(400)
		tr := diskTransfer(t, 2, d)
		defer tr.Stop()
		r, err := tr.Run(context.Background(), Params{NC: 4, NP: 2, PP: pp}, 30)
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput
	}
	slow, fast := measure(1), measure(8)
	if fast < 2*slow {
		t.Fatalf("pp=8 (%v) not well above pp=1 (%v)", fast, slow)
	}
}

func TestDiskRateCapsThroughput(t *testing.T) {
	// A 10 GB/s host on a 5 GB/s path: only the 2 GB/s storage array
	// can hold eight processes of eight streams back.
	f, err := NewFabric(FabricConfig{Seed: 3, Source: endpoint.Config{Name: "src", Cores: 8, CorePumpRate: 1.25e9, RestartBase: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPath(netem.Config{Name: "wan", Capacity: 5e9, BaseRTT: 0.01, RandomLoss: 1e-6, MaxCwnd: 16 << 20}); err != nil {
		t.Fatal(err)
	}
	tr := diskTransferOn(t, f, dataset.Uniform(16, 8<<30))
	defer tr.Stop()
	tr.Run(context.Background(), Params{NC: 8, NP: 8}, 10) // ramp
	r, err := tr.Run(context.Background(), Params{NC: 8, NP: 8}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput > 1.05*diskRate {
		t.Fatalf("throughput %v exceeds the %v storage rate", r.Throughput, diskRate)
	}
	if r.Throughput < 0.5*diskRate {
		t.Fatalf("throughput %v far below the storage rate", r.Throughput)
	}
}

func TestDiskRestartRequeuesFiles(t *testing.T) {
	// Changing parameters restarts the processes; in-flight files
	// must be re-requested, and the transfer still completes with
	// exactly the dataset's bytes counted at most once per file.
	d := dataset.Uniform(10, 100<<20)
	f, _ := testFabric(t, 4)
	tr, err := f.NewTransfer(TransferConfig{
		Name:  "disk-restart",
		Files: d,
		// RestartEveryEpoch: the paper's tuner behaviour.
	})
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	nc := 2
	for i := 0; i < 200; i++ {
		r, err := tr.Run(context.Background(), Params{NC: nc, NP: 4, PP: 2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		files += r.Files
		nc = 2 + i%3 // keep changing params
		if r.Done {
			if files != 10 {
				t.Fatalf("completed %d files, want 10", files)
			}
			return
		}
	}
	t.Fatal("transfer with restarts never completed")
}

func TestDiskMoreProcsThanFiles(t *testing.T) {
	d := dataset.Uniform(2, 20<<20)
	tr := diskTransfer(t, 5, d)
	for i := 0; i < 50; i++ {
		r, err := tr.Run(context.Background(), Params{NC: 16, NP: 2, PP: 1}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Done {
			return
		}
	}
	t.Fatal("over-provisioned disk transfer never completed")
}

func TestDiskEmptyFilesCompleteImmediately(t *testing.T) {
	d := dataset.Dataset{Sizes: []int64{0, 10 << 20}}
	tr := diskTransfer(t, 6, d)
	for i := 0; i < 50; i++ {
		r, err := tr.Run(context.Background(), Params{NC: 2, NP: 2, PP: 1}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Done {
			return
		}
	}
	t.Fatal("dataset with empty file never completed")
}

func TestParamsPipelining(t *testing.T) {
	if (Params{NC: 1, NP: 1}).Pipelining() != 1 {
		t.Fatal("zero PP should report depth 1")
	}
	if (Params{NC: 1, NP: 1, PP: 5}).Pipelining() != 5 {
		t.Fatal("PP not honoured")
	}
	if !(Params{NC: 1, NP: 1, PP: 3}).Valid() {
		t.Fatal("valid PP rejected")
	}
	if (Params{NC: 1, NP: 1, PP: -1}).Valid() {
		t.Fatal("negative PP accepted")
	}
	if got := (Params{NC: 2, NP: 8, PP: 4}).String(); got != "nc=2 np=8 pp=4" {
		t.Fatalf("String = %q", got)
	}
	if DefaultDisk() != (Params{NC: 2, NP: 8, PP: 4}) {
		t.Fatalf("DefaultDisk = %v", DefaultDisk())
	}
}

func TestDiskStateInternals(t *testing.T) {
	ds := newDiskState(dataset.Uniform(3, 1000))
	ds.resize(2)
	ds.assign(0, 1)
	if ds.active != 0 {
		t.Fatalf("procs active during the 0.5 s request latency: %d", ds.active)
	}
	ds.assign(1, 1) // past busyUntil
	if ds.active != 2 {
		t.Fatalf("active = %d, want 2", ds.active)
	}
	if cap := ds.capFor(0, 1, 5e8); cap != 5e8 {
		t.Fatalf("CPU-bound capFor = %v, want the CPU cap 5e8", cap)
	}
	if cap := ds.capFor(0, 1, 4e9); cap != diskRate/2 {
		t.Fatalf("storage-bound capFor = %v, want half the storage rate", cap)
	}
	// Consume one file fully.
	if got := ds.consume(0, 2000); got != 1000 {
		t.Fatalf("consume clipped to %v, want 1000", got)
	}
	if ds.filesDone != 1 || ds.epochFiles != 1 {
		t.Fatalf("filesDone=%d epochFiles=%d", ds.filesDone, ds.epochFiles)
	}
	// Requeue the in-flight file on proc 1 plus the queued one.
	ds.requeueInFlight()
	if len(ds.queue) != 2 {
		t.Fatalf("queue after requeue = %d, want 2", len(ds.queue))
	}
	if ds.finished() {
		t.Fatal("finished with files queued")
	}
}
