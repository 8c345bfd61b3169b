package gridftp

import (
	"context"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/xfer"
)

// BenchmarkLoopbackThroughput measures the raw striped-transfer rate
// over loopback with 4 unshaped connections; the metric is MB/s of
// goodput.
func BenchmarkLoopbackThroughput(b *testing.B) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	var bytes, secs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		bytes += r.Bytes
		secs += r.End - r.Start
	}
	b.StopTimer()
	if secs > 0 {
		b.ReportMetric(bytes/secs/1e6, "MB/s")
	}
}

// countDialer counts dial attempts, passing them through to the
// network.
type countDialer struct{ n atomic.Int64 }

func (d *countDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.n.Add(1)
	return net.DialTimeout(network, addr, timeout)
}

// BenchmarkEpochSetup measures the per-epoch setup cost of the warm
// data plane against the paper-faithful cold restart: dials per epoch
// and DeadTime per epoch. warm-steady must report 0 dials/epoch, and
// warm-delta (an nc 2->3->2 cycle) exactly 0.5 — one dial per two
// epochs, for the single +1 step.
func BenchmarkEpochSetup(b *testing.B) {
	run := func(b *testing.B, cold bool, cycle []int) {
		s, err := Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		d := &countDialer{}
		c, err := NewClient(ClientConfig{
			Addr:      s.Addr(),
			Bytes:     xfer.Unbounded,
			Dialer:    d.Dial,
			ColdStart: cold,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Stop()
		// Prime the control connection and (warm) the stripe pool at
		// the cycle's last width, so the timed epochs measure
		// steady-state behavior.
		if _, err := c.Run(context.Background(), xfer.Params{NC: cycle[len(cycle)-1], NP: 1}, 0.005); err != nil {
			b.Fatal(err)
		}
		d.n.Store(0)
		var deadSecs float64
		epochs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, nc := range cycle {
				r, err := c.Run(context.Background(), xfer.Params{NC: nc, NP: 1}, 0.005)
				if err != nil {
					b.Fatal(err)
				}
				deadSecs += r.DeadTime
				epochs++
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.n.Load())/float64(epochs), "dials/epoch")
		b.ReportMetric(deadSecs/float64(epochs)*1e3, "deadtime-ms/epoch")
	}
	b.Run("warm-steady", func(b *testing.B) { run(b, false, []int{2}) })
	b.Run("warm-delta", func(b *testing.B) { run(b, false, []int{3, 2}) })
	b.Run("cold", func(b *testing.B) { run(b, true, []int{2}) })
}

// BenchmarkManyFilesEpoch moves a 10k x 1 MiB dataset over loopback
// through the framed file plane in one epoch and pins the per-file
// cost: client-side data-plane syscalls per file (Report.Syscalls —
// one writev per header+payload frame, pipelined OPENs batched into
// one write per refill round, ~1) and allocations per epoch. A
// regression here means the multi-file pump started fragmenting its
// frames or allocating per file.
func BenchmarkManyFilesEpoch(b *testing.B) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const nFiles = 10000
	ds := dataset.Uniform(nFiles, 1<<20)
	var syscalls int64
	b.SetBytes(ds.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds})
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1, PP: 64}, 300)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Done {
			b.Fatalf("epoch did not complete the dataset: %+v", r)
		}
		syscalls += r.Syscalls
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(syscalls)/float64(int64(b.N)*nFiles), "syscalls/file")
}

// BenchmarkFileSourceEpoch moves a 4 GiB disk-backed dataset (128 x
// 32 MiB) over loopback and reports syscalls/GiB and MB/s for the
// zero-copy pump and the forced-userspace fallback. The zerocopy case
// is the acceptance gate: a sendfile lease costs ~6 syscalls
// regardless of length, so it must stay ≥5x under the userspace
// pread+writev figure at equal-or-better throughput
// (TestZeroCopySyscallDiscipline holds the ratio). With the server's truncating
// discard receive the zero-copy path is copy-free end to end — the
// sender queues page-cache references, the receiver drops them in
// kernel — so its margin over the userspace pump's three memory
// passes is large on this plane, not merely "equal".
//
// Setup overwrites the sparse materialized files with real bytes and
// leaves the page cache warm, so both modes stream dense data from
// memory. This isolates the variable under test — the data-plane
// syscall and copy path. Sparse files would flatter the userspace
// pump: hole reads are satisfied from the kernel's shared zero page,
// making its extra copies nearly free cache-hot traffic, whereas real
// transfers pay a memory pass per copy. And cold pages are
// pathological for sendfile on small single-CPU hosts (splice faults
// them in one at a time inside the send syscall, stalling the ACK
// clock); the pump's per-lease POSIX_FADV_WILLNEED hint recovers part
// of that, but the steady state this benchmark pins must not ride on
// kernel cold-page behavior that varies across hosts.
func BenchmarkFileSourceEpoch(b *testing.B) {
	srcDir := b.TempDir()
	ds := dataset.Uniform(128, 32<<20)
	if err := dataset.Materialize(srcDir, ds); err != nil {
		b.Fatal(err)
	}
	fill := make([]byte, 1<<20)
	for i := range fill {
		fill[i] = byte(i * 131)
	}
	for _, f := range ds.Files {
		fh, err := os.OpenFile(filepath.Join(srcDir, f.Name), os.O_WRONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		for off := int64(0); off < f.Size; off += int64(len(fill)) {
			n := int64(len(fill))
			if f.Size-off < n {
				n = f.Size - off
			}
			if _, err := fh.Write(fill[:n]); err != nil {
				b.Fatal(err)
			}
		}
		// Flush now so background writeback of 4 GiB of dirty setup
		// pages does not overlap (and penalize) whichever sub-benchmark
		// runs first.
		if err := fh.Sync(); err != nil {
			b.Fatal(err)
		}
		fh.Close()
	}
	run := func(b *testing.B, noZC bool) {
		s, err := Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var syscalls int64
		b.SetBytes(ds.TotalBytes())
		// One untimed epoch absorbs the cold-system tail: the first
		// transfer after materializing 4 GiB tends to land in TCP's
		// slow flow-start mode on a busy single-CPU host, and a
		// throwaway pass lets the timed epochs measure the pump, not
		// the machine settling.
		if wc, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, SourceDir: srcDir}); err == nil {
			forceUserspace(wc, noZC)
			wc.Run(context.Background(), xfer.Params{NC: 4, NP: 1, PP: 16}, 300)
			wc.Stop()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, SourceDir: srcDir})
			if err != nil {
				b.Fatal(err)
			}
			forceUserspace(c, noZC)
			r, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1, PP: 16}, 300)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Done {
				b.Fatalf("epoch did not complete the dataset: %+v", r)
			}
			syscalls += r.Syscalls
			b.StopTimer()
			c.Stop()
			b.StartTimer()
		}
		b.StopTimer()
		gib := float64(ds.TotalBytes()) / float64(1<<30) * float64(b.N)
		b.ReportMetric(float64(syscalls)/gib, "syscalls/GiB")
	}
	b.Run("zerocopy", func(b *testing.B) {
		if !zeroCopyAvailable {
			b.Skip("zero-copy unavailable in this build")
		}
		run(b, false)
	})
	b.Run("userspace", func(b *testing.B) { run(b, true) })
}

// BenchmarkPump measures the unshaped pump fast path in isolation:
// one stream draining a shared budget through byte leases. allocs/op
// must stay at zero — the lease quantum amortizes the shared-budget
// CAS, and the write buffer is the package's one zero slice.
func BenchmarkPump(b *testing.B) {
	var budget atomic.Int64
	budget.Store(int64(b.N) * fileChunk)
	abort := make(chan struct{})
	defer close(abort)
	b.SetBytes(fileChunk)
	b.ReportAllocs()
	b.ResetTimer()
	sent, alive := pump(io.Discard, math.Inf(1), time.Now().Add(time.Hour), &budget, abort)
	b.StopTimer()
	if !alive {
		b.Fatal("pump reported a dead stream on io.Discard")
	}
	if sent != int64(b.N)*fileChunk {
		b.Fatalf("pump sent %d bytes, want %d", sent, int64(b.N)*fileChunk)
	}
}

// TestPumpAllocs holds BenchmarkPump's contract exactly, where every PR
// is judged: a pump call that makes 256 writes allocates nothing — not
// per write, not per lease, not per call.
func TestPumpAllocs(t *testing.T) {
	const want = 256 * fileChunk
	var budget atomic.Int64
	abort := make(chan struct{})
	deadline := time.Now().Add(time.Hour)
	allocs := testing.AllocsPerRun(20, func() {
		budget.Store(want)
		if sent, alive := pump(io.Discard, math.Inf(1), deadline, &budget, abort); !alive || sent != want {
			t.Fatalf("pump sent %d bytes (alive %v), want %d", sent, alive, want)
		}
	})
	if allocs != 0 {
		t.Errorf("pump: %v allocs per 256-write call, want 0", allocs)
	}
}
