package gridftp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"dstune/internal/dataset"
	"dstune/internal/xfer"
)

// largestWrite records the bytes of every write and the largest one.
type largestWrite struct {
	bytes.Buffer
	most int
}

func (w *largestWrite) Write(p []byte) (int, error) {
	w.most = max(w.most, len(p))
	return w.Buffer.Write(p)
}

// TestManifestMatchesParent holds the MANIFEST bytes the client
// writes — for every dataset spec form and the one-file manifest of a
// bulk transfer, with and without SINK — equal, byte for byte (length
// and SHA-256), to those of the client that built the whole command as
// one string and wrote it with its newline:
// testdata/manifest_parent.json was generated by that client. No
// single write carries more than one manifestChunk.
func TestManifestMatchesParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/manifest_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Spec   string  `json:"spec"`
		Bytes  float64 `json:"bytes"`
		Seed   uint64  `json:"seed"`
		Sink   bool    `json:"sink"`
		Len    int     `json:"len"`
		SHA256 string  `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fixture")
	}
	for _, e := range entries {
		cfg := ClientConfig{Addr: "x", Token: "fixture-token", Bytes: e.Bytes, RequestSink: e.Sink}
		if e.Spec != "" {
			if cfg.Dataset, err = dataset.ParseSpec(e.Spec, e.Seed); err != nil {
				t.Fatal(err)
			}
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var w largestWrite
		if err := c.writeManifest(&w); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(w.Bytes())
		if got := hex.EncodeToString(sum[:]); w.Len() != e.Len || got != e.SHA256 {
			t.Errorf("%q seed %d bytes %g sink %v: %d bytes, sha256 %s; parent %d, %s",
				e.Spec, e.Seed, e.Bytes, e.Sink, w.Len(), got, e.Len, e.SHA256)
		}
		if w.most > manifestChunk {
			t.Errorf("%q: a write of %d bytes, more than one %d-byte chunk", e.Spec, w.most, manifestChunk)
		}
	}
}

// TestRefusedManifestErrorIsShort: the error of a MANIFEST the server
// refuses quotes the verb line, not the size lines after it — at
// 100 000 files those are ≈500 kB, and the error flows into a job's
// status and event stream.
func TestRefusedManifestErrorIsShort(t *testing.T) {
	s := startServer(t) // no sink configured
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: dataset.Uniform(100000, 1<<10), RequestSink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	_, err = c.Run(context.Background(), xfer.Params{NC: 1, NP: 1, PP: 1}, 0.2)
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("sinkless server accepted SINK: %v", err)
	}
	if len(err.Error()) >= 256 {
		t.Fatalf("refused manifest: a %d-byte error, want under 256: %.300q…", len(err.Error()), err.Error())
	}
	if !strings.Contains(err.Error(), `"MANIFEST `+c.token+` 100000 SINK"`) {
		t.Fatalf("refused manifest: error %q does not quote the verb line", err)
	}
}

// TestNegativeSizeRefused: a dataset with a negative size is refused by
// NewClient, naming the file, rather than read as an empty file.
func TestNegativeSizeRefused(t *testing.T) {
	ds := dataset.Dataset{Sizes: []int64{10, -1, 10}}
	if _, err := NewClient(ClientConfig{Addr: "x", Dataset: ds}); err == nil ||
		!strings.Contains(err.Error(), "file 1 has negative size") {
		t.Fatalf("negative size: %v", err)
	}
}

// allocBytes returns the fewest heap bytes f allocated over three
// calls.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNewClientBytesPerFile: a client keeps per file only its work
// queue's two bits — it reads the dataset's sizes in place, and holds a
// remainder only for a file in flight — so NewClient allocates at most
// 1 byte a file.
func TestNewClientBytesPerFile(t *testing.T) {
	ds, err := dataset.ParseSpec("lognormal:1048576:48KiB:1.2", 7)
	if err != nil {
		t.Fatal(err)
	}
	got := allocBytes(func() {
		if _, err := NewClient(ClientConfig{Addr: "x", Dataset: ds}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewClient of %d files: %d bytes, %.3f a file", ds.Count(), got, float64(got)/float64(ds.Count()))
	if perFile := float64(got) / float64(ds.Count()); perFile > 1 {
		t.Fatalf("NewClient of %d files allocated %d bytes, %.2f a file, budget 1", ds.Count(), got, perFile)
	}
}
