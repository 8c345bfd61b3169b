package dataset

import (
	"fmt"
	"strconv"
	"strings"
)

// maxSpecFiles bounds the file count a spec may request, so a hostile
// spec cannot allocate an unbounded manifest.
const maxSpecFiles = 1 << 20

// Spec is a checked dataset spec: the file count and sizes Parse read
// from the text, before any file exists. Generate builds the files.
type Spec struct {
	n     int
	size  int64   // each file's size, or the log-normal median
	sigma float64 // the log-normal spread; 0 for uniform sizes
}

// Generate builds the spec's files. Log-normal specs are deterministic
// per seed; uniform ones ignore it.
func (s Spec) Generate(seed uint64) Dataset {
	if s.sigma == 0 {
		return Uniform(s.n, s.size)
	}
	return LogNormal(s.n, float64(s.size), s.sigma, seed)
}

// ParseSpec builds a dataset from a compact textual spec: Parse, then
// Generate. A caller that only checks a spec calls Parse alone, which
// costs the same at any file count.
func ParseSpec(spec string, seed uint64) (Dataset, error) {
	s, err := Parse(spec)
	if err != nil {
		return Dataset{}, err
	}
	return s.Generate(seed), nil
}

// Parse checks a compact textual dataset spec without generating it:
//
//	COUNTxSIZE          uniform files, e.g. "10000x1MiB", "16x4GiB"
//	manysmall:COUNT     COUNT x 1 MB (the latency-bound regime)
//	fewhuge:COUNT       COUNT x 10 GB (the bandwidth-bound regime)
//	lognormal:COUNT:MEDIAN:SIGMA
//	                    heavy-tailed sizes, e.g. "lognormal:2000:8MiB:1.5"
//
// COUNT lies in [1, 2^20] and SIGMA in (0, 16]. SIZE accepts a decimal
// number with an optional B, KB, MB, GB, TB (decimal) or KiB, MiB,
// GiB, TiB (binary) suffix. No file exceeds 2^62/COUNT bytes, so a
// dataset's total is at most 2^62: a larger uniform SIZE is refused,
// and LogNormal clamps its draws to that bound. Hostile specs return
// an error, never a panic.
func Parse(spec string) (Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Spec{}, fmt.Errorf("dataset: empty spec")
	}
	if rest, ok := strings.CutPrefix(spec, "manysmall:"); ok {
		n, err := parseCount(rest)
		if err != nil {
			return Spec{}, err
		}
		return Spec{n: n, size: 1 << 20}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "fewhuge:"); ok {
		n, err := parseCount(rest)
		if err != nil {
			return Spec{}, err
		}
		return Spec{n: n, size: 10 << 30}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "lognormal:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return Spec{}, fmt.Errorf("dataset: lognormal spec %q: want lognormal:COUNT:MEDIAN:SIGMA", spec)
		}
		n, err := parseCount(parts[0])
		if err != nil {
			return Spec{}, err
		}
		median, err := ParseSize(parts[1])
		if err != nil {
			return Spec{}, err
		}
		sigma, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || !(sigma > 0 && sigma <= 16) { // refuses NaN as well
			return Spec{}, fmt.Errorf("dataset: lognormal sigma %q outside (0, 16]", parts[2])
		}
		return Spec{n: n, size: median, sigma: sigma}, nil
	}
	count, sizeStr, ok := strings.Cut(spec, "x")
	if !ok {
		return Spec{}, fmt.Errorf("dataset: bad spec %q: want COUNTxSIZE, manysmall:N, fewhuge:N, or lognormal:N:MEDIAN:SIGMA", spec)
	}
	n, err := parseCount(count)
	if err != nil {
		return Spec{}, err
	}
	size, err := ParseSize(sizeStr)
	if err != nil {
		return Spec{}, err
	}
	if most := maxFileSize(n); size > most {
		return Spec{}, fmt.Errorf("dataset: size %q over %d bytes, the most each of %d files may hold", sizeStr, most, n)
	}
	return Spec{n: n, size: size}, nil
}

// maxFileSize is the most bytes one of n files may hold, so that the
// n of them total at most 2^62.
func maxFileSize(n int) int64 { return int64(1) << 62 / int64(max(n, 1)) }

// parseCount parses a file count, bounded to [1, maxSpecFiles].
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 || n > maxSpecFiles {
		return 0, fmt.Errorf("dataset: file count %q outside [1, %d]", s, maxSpecFiles)
	}
	return n, nil
}

// sizeSuffixes maps size suffixes to their byte multipliers; longer
// suffixes are matched first.
var sizeSuffixes = []struct {
	suffix string
	mult   float64
}{
	{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
	{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
	{"B", 1},
}

// ParseSize parses a byte size with an optional decimal (KB, MB, GB,
// TB) or binary (KiB, MiB, GiB, TiB) suffix; a bare number is bytes.
func ParseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := 1.0
	for _, sf := range sizeSuffixes {
		if strings.HasSuffix(s, sf.suffix) {
			mult = sf.mult
			s = strings.TrimSuffix(s, sf.suffix)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || !(v >= 0) || v*mult > float64(int64(1)<<62) { // refuses NaN as well
		return 0, fmt.Errorf("dataset: bad size %q", s)
	}
	return int64(v * mult), nil
}
