package gridftp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/faultnet"
	"dstune/internal/xfer"
)

// writeSourceFiles materializes ds under dir with deterministic
// patterned content (distinct per file and offset, so a swapped or
// shifted byte cannot cancel out) and returns each file's payload.
func writeSourceFiles(t *testing.T, dir string, ds dataset.Dataset) [][]byte {
	t.Helper()
	payloads := make([][]byte, ds.Count())
	for i, size := range ds.Sizes {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*131 + j*7 + j>>9)
		}
		if err := os.WriteFile(filepath.Join(dir, dataset.Name(i)), p, 0o644); err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}
	return payloads
}

// forceUserspace keeps c's file-backed leases off sendfile(2) even
// where the build provides it: the portable pread+writev pump is the
// reference the fast path is compared against.
func forceUserspace(c *Client, on bool) { c.userspace = on }

// runToCompletion drives the client in short epochs until the dataset
// is done, returning the summed syscall count.
func runToCompletion(t *testing.T, c *Client, p xfer.Params) (syscalls int64) {
	t.Helper()
	for i := 0; i < 60; i++ {
		r, err := c.Run(context.Background(), p, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		syscalls += r.Syscalls
		if r.Done {
			return syscalls
		}
	}
	t.Fatal("dataset transfer never completed")
	return 0
}

func TestFileSourceValidation(t *testing.T) {
	dir := t.TempDir()
	ds := dataset.Uniform(2, 1<<10)
	writeSourceFiles(t, dir, ds)

	if _, err := NewClient(ClientConfig{Addr: "x", Bytes: 1, SourceDir: dir}); err == nil {
		t.Fatal("SourceDir without Dataset accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "x", Bytes: 1, RequestSink: true}); err == nil {
		t.Fatal("RequestSink without Dataset accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "x", Dataset: ds, SourceDir: dir}); err != nil {
		t.Fatalf("valid source rejected: %v", err)
	}

	missing := dataset.Uniform(3, 1<<10) // file-000002 was never written
	if _, err := NewClient(ClientConfig{Addr: "x", Dataset: missing, SourceDir: dir}); err == nil {
		t.Fatal("missing source file accepted")
	}
	big := dataset.Uniform(2, 2<<10) // real files hold only 1 KiB
	if _, err := NewClient(ClientConfig{Addr: "x", Dataset: big, SourceDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "needs") {
		t.Fatalf("short source file not rejected: %v", err)
	}
}

// TestFileSourceToSinkByteExact is the end-to-end integrity property
// of the disk-backed data plane: patterned files travel source → wire
// → sink and land bit-for-bit identical, with the zero-copy pump and
// with the userspace fallback forced. Sizes straddle every pump route:
// empty, sub-zcMinSegment (vectored-write route), and multi-chunk
// (sendfile route when available).
func TestFileSourceToSinkByteExact(t *testing.T) {
	for _, mode := range []struct {
		name       string
		noZeroCopy bool
	}{
		{"fastpath", false}, // sendfile where the build provides it
		{"userspace", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ds := dataset.Dataset{Sizes: []int64{0, 1, 64 << 10, zcMinSegment - 1, 2<<20 + 12345}}
			srcDir := t.TempDir()
			payloads := writeSourceFiles(t, srcDir, ds)

			s := startServer(t)
			sinkRoot := t.TempDir()
			s.SetSink(sinkRoot)

			c, err := NewClient(ClientConfig{
				Addr:        s.Addr(),
				Dataset:     ds,
				SourceDir:   srcDir,
				RequestSink: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			forceUserspace(c, mode.noZeroCopy)
			defer c.Stop()
			syscalls := runToCompletion(t, c, xfer.Params{NC: 2, NP: 1, PP: 4})
			if syscalls == 0 {
				t.Fatal("file-backed run reported no syscalls")
			}

			dir := filepath.Join(sinkRoot, sinkDirName(c.Token()))
			for i, want := range payloads {
				if len(want) == 0 {
					continue // zero-length files are done on arrival, never opened
				}
				got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%06d", i)))
				if err != nil {
					t.Fatalf("sink file %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("sink file %d (%s): %d bytes differ from the %d sent",
						i, dataset.Name(i), len(got), len(want))
				}
			}
		})
	}
}

// TestSinkRefusedWithoutServerDir: a client asking for disk delivery
// against a server with no sink root fails fast with the server's
// refusal, not a silent discard.
func TestSinkRefusedWithoutServerDir(t *testing.T) {
	ds := dataset.Uniform(2, 1<<10)
	srcDir := t.TempDir()
	writeSourceFiles(t, srcDir, ds)
	s := startServer(t)
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, SourceDir: srcDir, RequestSink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1, PP: 2}, 0.2); err == nil ||
		!strings.Contains(err.Error(), "sink") {
		t.Fatalf("sinkless server accepted SINK: %v", err)
	}
}

// TestDiskDatasetSurvivesInjectedFaults runs the disk-backed plane end
// to end under 20% dial refusals plus mid-epoch resets: every file must
// land on the sink bit-for-bit despite resent tails. The fault fabric
// wraps the conns, which defeats the *net.TCPConn assertion and forces
// the portable userspace pump — so together with
// TestFileSourceToSinkByteExact this proves byte-exactness with and
// without the fast path, fault-free and faulted.
func TestDiskDatasetSurvivesInjectedFaults(t *testing.T) {
	s := startServer(t)
	sinkRoot := t.TempDir()
	s.SetSink(sinkRoot)
	in := faultnet.New(faultnet.Config{
		Seed:            11,
		DialFailProb:    0.20,
		ResetAfterBytes: 256 << 10,
	})
	ds := dataset.Uniform(40, 48<<10)
	srcDir := t.TempDir()
	payloads := writeSourceFiles(t, srcDir, ds)
	c, err := NewClient(ClientConfig{
		Addr:        s.Addr(),
		Dataset:     ds,
		SourceDir:   srcDir,
		RequestSink: true,
		TCPInfo:     true, // wrapped conns: sampling must degrade to nil, not break
		Dialer:      in.Dial,
		Retry:       RetryConfig{Attempts: 3, Backoff: time.Millisecond},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	done := false
	for i := 0; i < 200 && !done; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 2, PP: 4}, 0.15)
		if err != nil {
			if xfer.IsTransient(err) {
				continue
			}
			t.Fatal(err)
		}
		if r.Kernel != nil {
			t.Fatal("fault-wrapped conns produced kernel samples")
		}
		done = r.Done
	}
	if !done {
		t.Fatal("transfer never completed under faults")
	}
	if in.Refused() == 0 || in.Resets() == 0 {
		t.Fatalf("injector idle (refused=%d resets=%d); the test exercised nothing", in.Refused(), in.Resets())
	}
	dir := filepath.Join(sinkRoot, sinkDirName(c.Token()))
	for i, want := range payloads {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%06d", i)))
		if err != nil {
			t.Fatalf("sink file %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sink file %d differs after faulted transfer", i)
		}
	}
}

// TestZeroCopySyscallDiscipline pins the point of the zero-copy pump:
// moving the same dataset takes ≥5× fewer data-plane syscalls than the
// userspace fallback. Runs only where the fast path is compiled in.
func TestZeroCopySyscallDiscipline(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("zero-copy unavailable in this build")
	}
	ds := dataset.Uniform(4, 32<<20) // 128 MiB: four full-quantum zc leases
	srcDir := t.TempDir()
	if err := dataset.Materialize(srcDir, ds); err != nil {
		t.Fatal(err)
	}
	measure := func(noZC bool) int64 {
		s := startServer(t)
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, SourceDir: srcDir})
		if err != nil {
			t.Fatal(err)
		}
		forceUserspace(c, noZC)
		defer c.Stop()
		return runToCompletion(t, c, xfer.Params{NC: 2, NP: 1, PP: 4})
	}
	zc := measure(false)
	us := measure(true)
	if zc == 0 || us == 0 {
		t.Fatalf("missing syscall accounting: zc=%d userspace=%d", zc, us)
	}
	if us < 5*zc {
		t.Fatalf("zero-copy used %d syscalls vs %d userspace — want ≥5× fewer", zc, us)
	}
}
