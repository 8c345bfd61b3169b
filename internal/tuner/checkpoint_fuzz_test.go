package tuner

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint
// loaders as one checkpoint file and resumes every checkpoint they
// accept under the strategy name it carries, so its records are
// replayed. Corrupt or truncated input must surface as an error — never
// a panic — from the loader or the replay, anything accepted must
// satisfy the loader's invariants, and the header-only loader must
// agree with the full one on every file the full one accepts.
func FuzzLoadCheckpoint(f *testing.F) {
	frame := func(js string) string {
		return fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(js), castagnoli), js)
	}
	flip := func(s string, at int) string {
		b := []byte(s)
		b[at] ^= 1
		return string(b)
	}
	// A file in this build's layout, then the ways a crash, a bad disk
	// or a foreign writer can leave one: torn, flipped, unframed,
	// framed non-records, and headers of other layouts.
	hdr := `{"version":4,"tuner":"cs-tuner","seed":7,"transfer":{"total_bytes":-1,"remaining_bytes":-1}}` + "\n"
	rec := `{"x":[2],"report":{"Start":0,"End":30,"Bytes":3e9,"Throughput":1e8},"transfer":{"total_bytes":-1,"acked_bytes":3e9,"remaining_bytes":-1,"clock_seconds":30}}`
	valid := hdr + frame(rec) + frame(rec)
	v3, err := os.ReadFile(filepath.Join("testdata", "v3.checkpoint"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		valid,
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		hdr + flip(frame(rec), 20) + frame(rec),
		hdr + frame(rec) + flip(frame(rec), 20),
		hdr,
		hdr[:len(hdr)-1],
		hdr + rec + "\n",
		hdr + frame("[1,2]"),
		hdr + "\n\n\n",
		hdr + strings.ToUpper(frame(rec)),
		`{}`,
		"{}\n",
		"{\"version\":99}\n",
		`null`,
		``,
		string(v3),
		`{"version":2,"tuner":"cs-tuner","epochs":1,"trace":[{"x":[2]}]}`,
		`{"version":4,"tuner":"rl-bandit","seed":7,"transfer":{}}` + "\n" + frame(rec),
		`{"version":4,"epochs":-1,"trace":[{"x":[2]}]}` + "\n" + frame(rec),
		hdr + frame(rec) + frame(`{"x":`),
		`{"version":4,"transfer":{"total_bytes":1e999}}` + "\n",
		hdr + frame(`{"x":[2],"transfer":{"acked_bytes":"x"}}`),
	} {
		f.Add([]byte(seed))
	}
	// Files whose records replay: every cold name's, as a drained run
	// with a transient last epoch writes them, cd-tuner's with a start
	// of the wrong width, which ResolveStrategy refuses (replayed, it
	// indexed past an empty vector), and model's with a hostile report.
	var files map[string]string
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "parent_checkpoints.json"))
	if err == nil {
		err = json.Unmarshal(raw, &files)
	}
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range strategyNames() {
		f.Add([]byte(files[name]))
	}
	f.Add([]byte(`{"version":4,"tuner":"cd-tuner","seed":7,"start":[],"transfer":{}}` + "\n" + frame(`{"x":[]}`) + frame(`{"x":[]}`)))
	f.Add([]byte(`{"version":4,"tuner":"model","seed":7,"transfer":{}}` + "\n" +
		frame(`{"x":[2],"report":{"Start":-1e308,"End":1e308,"Throughput":-1e308,"BestCase":1e308,"Kernel":{"retrans_delta":-9,"stripes":[{}]}}}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, herr := LoadCheckpointHead(path)
		if herr == nil && (h.Version != CheckpointVersion || h.Trace != nil || h.Epochs < 0) {
			t.Fatalf("head loader accepted version %d, %d epochs, %d trace records", h.Version, h.Epochs, len(h.Trace))
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if ck.Version != CheckpointVersion {
			t.Fatalf("loader accepted version %d", ck.Version)
		}
		if ck.Epochs != len(ck.Trace) {
			t.Fatalf("loader accepted %d epochs with %d trace records", ck.Epochs, len(ck.Trace))
		}
		if herr != nil || h.Epochs != ck.Epochs || !reflect.DeepEqual(h.Transfer, ck.Transfer) {
			t.Fatalf("the head loader reads %+v (%v) where the full one reads %d epochs at %+v", h, herr, ck.Epochs, ck.Transfer)
		}
		// An accepted checkpoint resumes or is refused; arbitrary
		// records must never panic the strategy they are replayed into.
		cfg := simCfg()
		cfg.Resume = ck
		s, start, err := ResolveStrategy(ck.Tuner, cfg)
		if err != nil {
			return
		}
		_, _ = NewSessionRuntime(cfg.Session("", s, start, newFake(peaked(10))))
	})
}
