// Package dataset models the file sets moved by disk-to-disk
// transfers: deterministic generators for the size regimes that
// Yildirim et al. [25] analyze and that the paper's future-work item
// (1) targets — many small files (request-latency bound), mixes, and
// few huge files (bandwidth bound). A dataset is its file sizes: file
// i's name is computed from i when a file-backed source or
// Materialize asks for it, so a file costs its eight size bytes.
package dataset

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"dstune/internal/sim"
)

// Dataset is an ordered set of files: file i is Sizes[i] bytes and is
// named Name(i).
type Dataset struct {
	// Sizes lists the file sizes in bytes, in transfer order.
	Sizes []int64
}

// Name returns the name of file i (i >= 0): "file-" and i in at least
// six digits, as fmt's "file-%06d" prints it. A name is always a local
// path of one element, distinct for distinct i.
func Name(i int) string {
	digits := strconv.Itoa(i)
	if len(digits) < 6 {
		digits = "000000"[len(digits):] + digits
	}
	return "file-" + digits
}

// Count returns the number of files.
func (d Dataset) Count() int { return len(d.Sizes) }

// TotalBytes returns the dataset's total size.
func (d Dataset) TotalBytes() int64 {
	var sum int64
	for _, size := range d.Sizes {
		sum += size
	}
	return sum
}

// MedianSize returns the median file size in bytes, or 0 when empty.
func (d Dataset) MedianSize() float64 {
	n := len(d.Sizes)
	if n == 0 {
		return 0
	}
	sizes := slices.Clone(d.Sizes)
	slices.Sort(sizes)
	if n%2 == 1 {
		return float64(sizes[n/2])
	}
	return float64(sizes[n/2-1]+sizes[n/2]) / 2
}

// String implements fmt.Stringer.
func (d Dataset) String() string {
	return fmt.Sprintf("%d files, %.1f MB total, median %.2f MB",
		d.Count(), float64(d.TotalBytes())/1e6, d.MedianSize()/1e6)
}

// Uniform returns n files of identical size (n < 0 is none).
func Uniform(n int, size int64) Dataset {
	d := Dataset{Sizes: make([]int64, max(n, 0))}
	for i := range d.Sizes {
		d.Sizes[i] = size
	}
	return d
}

// LogNormal returns n files with log-normally distributed sizes: the
// heavy-tailed shape of real scientific datasets. median is the
// distribution's median size in bytes and sigma the log-space standard
// deviation (1.0 is a typical spread; larger is heavier-tailed).
// Sizes are clamped to [1, 2^62/n] bytes — in float, before a draw past
// the int64 range could wrap — so the total is at most 2^62.
// Deterministic per seed.
func LogNormal(n int, median float64, sigma float64, seed uint64) Dataset {
	rng := sim.NewRNG(seed)
	mu := math.Log(median)
	most := maxFileSize(n)
	d := Dataset{Sizes: make([]int64, max(n, 0))}
	for i := range d.Sizes {
		v := min(math.Exp(mu+sigma*rng.NormFloat64()), float64(most))
		d.Sizes[i] = min(max(int64(v), 1), most)
	}
	return d
}

// ManySmall returns the latency-bound regime of [25]: n files of
// 1 MB.
func ManySmall(n int) Dataset { return Uniform(n, 1<<20) }
