package service

import (
	"encoding/json"
	"testing"

	"dstune/internal/dataset"
)

// TestDatasetCheckMatchesBuild: the check Validate runs rejects exactly
// the dataset specs the build rejects, with the same text, and admits
// the rest.
func TestDatasetCheckMatchesBuild(t *testing.T) {
	// The dataset specs a job may name, each marked with whether it is
	// runnable: every dataset row of FuzzDecodeJobSpec's seeds, and the
	// edges of each bound Parse checks.
	rows := []struct {
		spec string
		ok   bool
	}{
		// FuzzDecodeJobSpec's seeds.
		{"10x1MiB", true},
		{"10000x1MiB", true},
		{"lognormal:2000:8MiB:1.5", true},
		{"manysmall:20000", true},
		{"0x1MiB", false},
		{"99999999999x1TiB", false},
		{"lognormal:10:1MiB:-3", false},
		// The count, in [1, 2^20].
		{"0x1B", false},
		{"1x1B", true},
		{"1048576x1B", true},
		{"1048577x1B", false},
		// The log-normal sigma, in (0, 16].
		{"lognormal:10:1MiB:0", false},
		{"lognormal:10:1MiB:16", true},
		{"lognormal:10:1MiB:16.0001", false},
		// NaN, which no ordered comparison refuses: ten files of -2^63
		// bytes, or of one byte.
		{"10xNaN", false},
		{"lognormal:10:1MiB:NaN", false},
		{"lognormal:10:NaN:1", false},
		// A size over 2^62 bytes, an unknown suffix, the empty spec.
		{"1x4194305TiB", false},
		{"1x1ZiB", false},
		{"", false},
	}
	named := map[string]bool{}
	for _, r := range rows {
		named[r.spec] = true
		_, perr := dataset.Parse(r.spec)
		_, berr := dataset.ParseSpec(r.spec, 1)
		if (perr == nil) != r.ok || (berr == nil) != r.ok {
			t.Errorf("%q: Parse error %v, ParseSpec error %v; runnable %v", r.spec, perr, berr, r.ok)
			continue
		}
		if !r.ok && perr.Error() != berr.Error() {
			t.Errorf("%q: Parse says %q, ParseSpec %q", r.spec, perr, berr)
		}
		if r.spec == "" {
			continue // an empty dataset field is a job without one
		}
		verr := JobSpec{Dataset: r.spec, Budget: 60}.Validate()
		if (verr == nil) != r.ok || (!r.ok && verr.Error() != "service: "+perr.Error()) {
			t.Errorf("%q: Validate says %v, Parse %v", r.spec, verr, perr)
		}
	}
	for _, seed := range decodeSeeds {
		var v struct{ Dataset *string }
		if json.Unmarshal([]byte(seed), &v) == nil && v.Dataset != nil && !named[*v.Dataset] {
			t.Errorf("FuzzDecodeJobSpec seed %s names dataset %q, which has no row here", seed, *v.Dataset)
		}
	}
}

// TestDecodeJobSpecCostIsFlatInFileCount: checking a 2^20-file dataset
// job costs what checking a 10-file one does, because nothing is
// generated.
func TestDecodeJobSpecCostIsFlatInFileCount(t *testing.T) {
	allocs := func(spec string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := DecodeJobSpec([]byte(spec)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(`{"dataset": "10x1MiB", "budget": 60}`)
	big := allocs(`{"dataset": "1048576x1MiB", "budget": 60}`)
	if big > small+2 {
		t.Fatalf("DecodeJobSpec: %v allocations for 2^20 files, %v for 10", big, small)
	}
}
