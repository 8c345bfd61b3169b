package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"dstune/internal/sim"
)

// parentFile is a file as the parent generators built it: a name
// stored beside each size.
type parentFile struct {
	Name string
	Size int64
}

// parentDataset is a dataset as the parent generators built it.
type parentDataset struct{ Files []parentFile }

func (d parentDataset) Count() int { return len(d.Files) }

// parentParseSpec, parentUniform and parentLogNormal are the
// generators as they were before Parse split from Generate and a
// dataset came to hold only its sizes: one fmt.Sprintf per stored file
// name, and the build inside the check. They exist only to pin today's
// sizes and Name to theirs.
func parentParseSpec(spec string, seed uint64) (parentDataset, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return parentDataset{}, fmt.Errorf("dataset: empty spec")
	}
	if rest, ok := strings.CutPrefix(spec, "manysmall:"); ok {
		n, err := parseCount(rest)
		if err != nil {
			return parentDataset{}, err
		}
		return parentUniform(n, 1<<20), nil
	}
	if rest, ok := strings.CutPrefix(spec, "fewhuge:"); ok {
		n, err := parseCount(rest)
		if err != nil {
			return parentDataset{}, err
		}
		return parentUniform(n, 10<<30), nil
	}
	if rest, ok := strings.CutPrefix(spec, "lognormal:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return parentDataset{}, fmt.Errorf("dataset: lognormal spec %q: want lognormal:COUNT:MEDIAN:SIGMA", spec)
		}
		n, err := parseCount(parts[0])
		if err != nil {
			return parentDataset{}, err
		}
		median, err := ParseSize(parts[1])
		if err != nil {
			return parentDataset{}, err
		}
		sigma, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || sigma <= 0 || sigma > 16 {
			return parentDataset{}, fmt.Errorf("dataset: lognormal sigma %q outside (0, 16]", parts[2])
		}
		return parentLogNormal(n, float64(median), sigma, seed), nil
	}
	count, sizeStr, ok := strings.Cut(spec, "x")
	if !ok {
		return parentDataset{}, fmt.Errorf("dataset: bad spec %q: want COUNTxSIZE, manysmall:N, fewhuge:N, or lognormal:N:MEDIAN:SIGMA", spec)
	}
	n, err := parseCount(count)
	if err != nil {
		return parentDataset{}, err
	}
	size, err := ParseSize(sizeStr)
	if err != nil {
		return parentDataset{}, err
	}
	return parentUniform(n, size), nil
}

func parentUniform(n int, size int64) parentDataset {
	if n < 0 {
		n = 0
	}
	d := parentDataset{Files: make([]parentFile, n)}
	for i := range d.Files {
		d.Files[i] = parentFile{Name: fmt.Sprintf("file-%06d", i), Size: size}
	}
	return d
}

func parentLogNormal(n int, median float64, sigma float64, seed uint64) parentDataset {
	if n < 0 {
		n = 0
	}
	rng := sim.NewRNG(seed)
	mu := math.Log(median)
	d := parentDataset{Files: make([]parentFile, n)}
	for i := range d.Files {
		size := int64(math.Exp(mu + sigma*rng.NormFloat64()))
		if size < 1 {
			size = 1
		}
		d.Files[i] = parentFile{Name: fmt.Sprintf("file-%06d", i), Size: size}
	}
	return d
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestParseSpecMatchesParent holds every spec form to the per-file
// Sprintf generators, Name for stored name and size for size, on both
// sides of the six-to-seven digit boundary of the names. The parent's first
// n files are the first n of its 1 000 001 (the names count up and the
// RNG is read in file order), so each form and seed builds the parent
// once, and a uniform form, which reads no seed, once in all.
//
// Under the race detector, which makes the grid's million-file builds
// take half a minute, each form runs one small case: ten files of seed
// 1, against the parent's ten. That runs every generator under the
// detector; the names past six digits, the other seeds and the
// million-file counts are the plain run's to check.
func TestParseSpecMatchesParent(t *testing.T) {
	most, seeds, counts := 1000001, []uint64{1, 7, 9471}, []int{1, 10, 999999, 1000001}
	if raceEnabled {
		most, seeds, counts = 10, seeds[:1], []int{10}
	}
	for _, form := range []string{"%dx48KiB", "manysmall:%d", "fewhuge:%d", "lognormal:%d:48KiB:1.2"} {
		var want parentDataset
		for _, seed := range seeds {
			if want.Files == nil || strings.HasPrefix(form, "lognormal:") {
				want, _ = parentParseSpec(fmt.Sprintf(form, most), seed)
			}
			for _, n := range counts {
				spec := fmt.Sprintf(form, n)
				got, err := ParseSpec(spec, seed)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", spec, err)
				}
				if got.Count() != n {
					t.Fatalf("ParseSpec(%q, %d): %d files", spec, seed, got.Count())
				}
				for i, size := range got.Sizes {
					if f := (parentFile{Name(i), size}); f != want.Files[i] {
						t.Fatalf("ParseSpec(%q, %d) file %d = %+v, want %+v", spec, seed, i, f, want.Files[i])
					}
				}
			}
		}
	}
	if got := Uniform(-5, 1).Sizes; got == nil || len(got) != 0 {
		t.Fatalf("Uniform(-5) sizes = %#v, want empty and non-nil", got)
	}
}

// TestParseRejectsWhatParentRejects holds Parse to the parent's
// combined check-and-build at the edges of every bound: the same specs
// fail, with the same text, and a spec that parses generates the
// parent's file count.
func TestParseRejectsWhatParentRejects(t *testing.T) {
	for _, spec := range []string{
		"", "   ", "0x1MiB", "1x1MiB", "1048576x1B", "1048577x1B", "-1x1B",
		"manysmall:0", "manysmall:1", "fewhuge:1048577", "fewhuge:x",
		"lognormal:10:1MiB:0", "lognormal:10:1MiB:16", "lognormal:10:1MiB:16.0001",
		"lognormal:10:1MiB:-3", "lognormal:10:1MiB:NaN", "lognormal:10:1MiB", "lognormal:10:1ZiB:1",
		"4611686018427387904x1", "1x4611686018427387904B", "1x4611686018427387905B", "1x4194305TiB",
		"1x1ZiB", "1x-1B", "10", "axb",
	} {
		p, perr := Parse(spec)
		_, berr := ParseSpec(spec, 1)
		want, werr := parentParseSpec(spec, 1)
		if errText(perr) != errText(werr) || errText(berr) != errText(werr) {
			t.Errorf("%q: Parse error %q, ParseSpec error %q, parent %q", spec, errText(perr), errText(berr), errText(werr))
			continue
		}
		if perr == nil && p.Count() != want.Count() {
			t.Errorf("%q: Count() = %d, parent generates %d", spec, p.Count(), want.Count())
		}
	}
}

// TestNoFileExceedsItsShare: no file exceeds 2^62/COUNT bytes, so no
// dataset a spec builds totals more than 2^62. A log-normal spec whose
// draws reach past the int64 range is clamped to that bound, and a
// uniform spec over it is refused.
func TestNoFileExceedsItsShare(t *testing.T) {
	for _, tc := range []struct {
		spec string
		seed uint64
	}{
		{"lognormal:1048576:1KiB:16", 3},
		{"lognormal:16:4TiB:16", 1},
		{"1048576x4TiB", 0},
		{"1x4611686018427387904B", 0},
		{"3x1537228672809129301B", 0},
	} {
		d, err := ParseSpec(tc.spec, tc.seed)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		most := int64(1) << 62 / int64(d.Count())
		var clamped int
		for i, sz := range d.Sizes {
			if sz < 1 || sz > most {
				t.Fatalf("%q: file %d has %d bytes, outside [1, %d]", tc.spec, i, sz, most)
			}
			if sz == most {
				clamped++
			}
		}
		if total := d.TotalBytes(); total <= 0 || total > 1<<62 {
			t.Fatalf("%q: total %d bytes, want in (0, 2^62]", tc.spec, total)
		}
		if strings.HasPrefix(tc.spec, "lognormal:") && clamped == 0 {
			t.Fatalf("%q: no draw reached the bound", tc.spec)
		}
	}
	for _, spec := range []string{"1048576x4398046511105B", "2x4611686018427387904B", "3x1537228672809139301B"} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), "the most each of") {
			t.Errorf("%q: %v, want refused over its share of 2^62", spec, err)
		}
	}
}

// TestParseSpecAllocs: a 300 000-file spec costs a handful of
// allocations (the size slice and the RNG), not one or two a file.
func TestParseSpecAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ParseSpec("lognormal:300000:48KiB:1.2", 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("ParseSpec of 300 000 files: %v allocations, budget 8", allocs)
	}
}

func BenchmarkParseSpec300k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSpec("lognormal:300000:48KiB:1.2", 7); err != nil {
			b.Fatal(err)
		}
	}
}
