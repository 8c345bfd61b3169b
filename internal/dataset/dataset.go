// Package dataset models the file sets moved by disk-to-disk
// transfers: deterministic generators for the size regimes that
// Yildirim et al. [25] analyze and that the paper's future-work item
// (1) targets — many small files (request-latency bound), mixes, and
// few huge files (bandwidth bound).
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dstune/internal/sim"
)

// File is one file to transfer.
type File struct {
	// Name identifies the file.
	Name string
	// Size is the file's size in bytes.
	Size int64
}

// Dataset is an ordered set of files.
type Dataset struct {
	// Files lists the files in transfer order.
	Files []File
}

// Count returns the number of files.
func (d Dataset) Count() int { return len(d.Files) }

// TotalBytes returns the dataset's total size.
func (d Dataset) TotalBytes() int64 {
	var sum int64
	for _, f := range d.Files {
		sum += f.Size
	}
	return sum
}

// MedianSize returns the median file size in bytes, or 0 when empty.
func (d Dataset) MedianSize() float64 {
	n := len(d.Files)
	if n == 0 {
		return 0
	}
	sizes := make([]int64, n)
	for i, f := range d.Files {
		sizes[i] = f.Size
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
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

// Uniform returns n files of identical size.
func Uniform(n int, size int64) Dataset {
	d := Dataset{Files: newFiles(n)}
	for i := range d.Files {
		d.Files[i].Size = size
	}
	return d
}

// LogNormal returns n files with log-normally distributed sizes: the
// heavy-tailed shape of real scientific datasets. median is the
// distribution's median size in bytes and sigma the log-space standard
// deviation (1.0 is a typical spread; larger is heavier-tailed).
// Sizes are clamped to at least 1 byte. Deterministic per seed.
func LogNormal(n int, median float64, sigma float64, seed uint64) Dataset {
	rng := sim.NewRNG(seed)
	mu := math.Log(median)
	d := Dataset{Files: newFiles(n)}
	for i := range d.Files {
		size := int64(math.Exp(mu + sigma*rng.NormFloat64()))
		if size < 1 {
			size = 1
		}
		d.Files[i].Size = size
	}
	return d
}

// newFiles returns n unsized files named as fmt's "file-%06d" prints
// their index (n < 0 is none). The names are slices of one shared
// string, so n names cost one allocation, not n.
func newFiles(n int) []File {
	files := make([]File, max(n, 0))
	total := 0
	for i := range files {
		total += nameLen(i)
	}
	var b strings.Builder
	b.Grow(total)
	var digits [20]byte
	for i := range files {
		d := strconv.AppendInt(digits[:0], int64(i), 10)
		b.WriteString("file-")
		for k := len(d); k < 6; k++ {
			b.WriteByte('0')
		}
		b.Write(d)
	}
	names, off := b.String(), 0
	for i := range files {
		end := off + nameLen(i)
		files[i].Name = names[off:end]
		off = end
	}
	return files
}

// nameLen is the length of file i's name: "file-" and its index in at
// least six digits.
func nameLen(i int) int {
	n := len("file-000000")
	for v := i / 1000000; v > 0; v /= 10 {
		n++
	}
	return n
}

// ManySmall returns the latency-bound regime of [25]: n files of
// 1 MB.
func ManySmall(n int) Dataset { return Uniform(n, 1<<20) }

// FewHuge returns the bandwidth-bound regime of [25]: n files of
// 10 GB.
func FewHuge(n int) Dataset { return Uniform(n, 10<<30) }
