package service

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"dstune/internal/dataset"
	"dstune/internal/tuner"
)

// FuzzDecodeJobSpec hammers the control API's parser with hostile
// input. The contract: DecodeJobSpec never panics, and anything it
// rejects carries an error while anything it accepts is a fully
// validated, runnable spec — there is no partially-usable middle
// ground a caller could journal by mistake.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		// Accepted specs must be self-consistently valid — Validate is
		// the same gate Submit applies before journaling.
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("DecodeJobSpec accepted %q but Validate rejects it: %v", data, verr)
		}
		// And their names must be safe to become filenames.
		for _, name := range []string{spec.ID, spec.Tenant} {
			if strings.ContainsAny(name, "/\x00") || name == "." || name == ".." {
				t.Fatalf("accepted unsafe name %q from %q", name, data)
			}
			if !utf8.ValidString(name) {
				t.Fatalf("accepted non-UTF-8 name %q from %q", name, data)
			}
		}
		// Every accepted spec builds its search space: no bound it admits
		// may reach directsearch.MustBox's panic.
		spec.WithDefaults().space().Apply(tuner.Config{})
		// Every accepted spec must be able to terminate: a finite byte
		// volume, a budget, or a dataset (which bounds the transfer).
		if spec.Bytes == 0 && spec.Budget == 0 && spec.Dataset == "" {
			t.Fatalf("accepted non-terminating spec from %q", data)
		}
		// Validate parses a dataset without generating it, so generate
		// what it accepted (up to 2^14 files, to keep each input cheap):
		// the build has no error path of its own, yields the parsed
		// count, and every size is non-negative and sums, without
		// wrapping, to TotalBytes.
		if spec.Dataset == "" {
			return
		}
		parsed, err := dataset.Parse(spec.Dataset)
		if err != nil {
			t.Fatalf("accepted dataset %q that does not parse: %v", spec.Dataset, err)
		}
		if parsed.Count() > 1<<14 {
			return
		}
		files, err := spec.files()
		if err != nil || files.Count() != parsed.Count() {
			t.Fatalf("dataset %q parsed to %d files but built %d (%v)", spec.Dataset, parsed.Count(), files.Count(), err)
		}
		var sum int64
		for i, size := range files.Sizes {
			if size < 0 || sum > math.MaxInt64-size {
				t.Fatalf("dataset %q: file %d of %d bytes after %d", spec.Dataset, i, size, sum)
			}
			sum += size
		}
		if sum != files.TotalBytes() {
			t.Fatalf("dataset %q: sizes sum to %d, TotalBytes %d", spec.Dataset, sum, files.TotalBytes())
		}
	})
}

// decodeSeeds is FuzzDecodeJobSpec's seed corpus; its dataset rows are
// also TestDatasetCheckMatchesBuild's.
var decodeSeeds = []string{
	``,
	`{}`,
	`null`,
	`[]`,
	`"job"`,
	`{"id": "alpha", "bytes": 1e9}`,
	`{"id": "alpha", "budget": 60}`,
	`{"id": "../../etc/passwd", "bytes": 1}`,
	"{\"id\": \"a\x00b\", \"bytes\": 1}",
	// The withdrawn kernel-aware: prefix: rejected inputs now.
	`{"tuner": "kernel-aware:cs-tuner", "bytes": 1e9, "tenant": "t1"}`,
	`{"tuner": "kernel-aware:rl-bandit", "bytes": 1e9, "tenant": "t1"}`,
	`{"tuner": "rl-bandit", "budget": 60, "two": true}`,
	`{"bytes": 1e308, "epoch": 1e308, "budget": 1e308}`,
	`{"bytes": "NaN"}`,
	`{"np": -1, "bytes": 1}`,
	`{"max_nc": 99999999, "bytes": 1}`,
	`{"max_nc": -5, "bytes": 1}`,
	`{"max_nc": 1, "max_np": 1, "two": true, "dataset": "10x1MiB"}`,
	`{"dial_fail_prob": 0.5, "bytes": 1}`,
	`{"addr": "127.0.0.1:0", "dial_fail_prob": 0.5, "bytes": 1}`,
	`{"addr": "127.0.0.1:0", "dataset": "10000x1MiB", "two": true}`,
	`{"addr": "127.0.0.1:0", "dataset": "lognormal:2000:8MiB:1.5", "pp": 4}`,
	`{"dataset": "manysmall:20000", "budget": 60}`,
	`{"dataset": "0x1MiB", "budget": 60}`,
	`{"dataset": "99999999999x1TiB"}`,
	`{"dataset": "lognormal:10:1MiB:-3"}`,
	`{"dataset": "10xNaN", "budget": 60}`,
	`{"dataset": "lognormal:10:1MiB:NaN", "budget": 60}`,
	`{"dataset": "lognormal:10:NaN:1", "budget": 60}`,
	`{"dataset": "10x1MiB", "bytes": 1}`,
	`{"pp": 4, "bytes": 1}`,
	`{"pp": -1, "dataset": "10x1MiB"}`,
	`{"unknown": true, "bytes": 1}`,
	`{"bytes": 1}{"bytes": 2}`,
	`{"id": "` + strings.Repeat("x", 100) + `", "bytes": 1}`,
	strings.Repeat(`{"id":`, 1000),
}
