package dataset

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	d := Uniform(10, 1000)
	if d.Count() != 10 || d.TotalBytes() != 10000 {
		t.Fatalf("Uniform: %v", d)
	}
	if d.MedianSize() != 1000 {
		t.Fatalf("median: %v", d.MedianSize())
	}
	if Name(3) != "file-000003" {
		t.Fatalf("name %q", Name(3))
	}
	if Uniform(-5, 1).Count() != 0 {
		t.Fatal("negative count not clamped")
	}
}

func TestEmptyDataset(t *testing.T) {
	var d Dataset
	if d.MedianSize() != 0 || d.TotalBytes() != 0 {
		t.Fatal("empty dataset stats not zero")
	}
}

func TestMedianEvenCount(t *testing.T) {
	d := Dataset{Sizes: []int64{1, 3, 100, 2}}
	if got := d.MedianSize(); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestLogNormalProperties(t *testing.T) {
	d := LogNormal(5000, 1e6, 1.0, 7)
	if d.Count() != 5000 {
		t.Fatalf("count %d", d.Count())
	}
	med := d.MedianSize()
	if med < 0.8e6 || med > 1.25e6 {
		t.Fatalf("median %v, want near 1e6", med)
	}
	// Heavy tail: mean well above median.
	if mean := float64(d.TotalBytes()) / float64(d.Count()); mean <= med {
		t.Fatalf("mean %v not above median %v", mean, med)
	}
	for _, size := range d.Sizes {
		if size < 1 {
			t.Fatal("size below 1 byte")
		}
	}
}

func TestLogNormalDeterministic(t *testing.T) {
	a := LogNormal(100, 1e6, 1, 3)
	b := LogNormal(100, 1e6, 1, 3)
	if !slices.Equal(a.Sizes, b.Sizes) {
		t.Fatal("same seed differs")
	}
	if c := LogNormal(100, 1e6, 1, 4); slices.Equal(a.Sizes, c.Sizes) {
		t.Fatal("different seeds identical")
	}
}

func TestRegimes(t *testing.T) {
	small := ManySmall(100)
	if small.TotalBytes() != 100<<20 {
		t.Fatalf("ManySmall total %d", small.TotalBytes())
	}
	huge, err := ParseSpec("fewhuge:2", 1)
	if err != nil || huge.TotalBytes() != 20<<30 {
		t.Fatalf("fewhuge:2 total %d (%v)", huge.TotalBytes(), err)
	}
}

func TestString(t *testing.T) {
	if s := Uniform(3, 1<<20).String(); !strings.Contains(s, "3 files") {
		t.Fatalf("String: %q", s)
	}
}

func TestTotalBytesMatchesSumProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		d := Dataset{}
		var want int64
		for _, s := range sizes {
			d.Sizes = append(d.Sizes, int64(s))
			want += int64(s)
		}
		return d.TotalBytes() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNameIsLocalAndUnique: a name is fmt's "file-%06d" of its index,
// one local path element, and distinct from every other index's — at
// the first index, both sides of the six-to-seven digit boundary and
// the last index a spec may reach. Names are what Materialize creates
// and a file-backed source opens under its directory, which is why
// neither needs a check that a name escapes it or collides.
func TestNameIsLocalAndUnique(t *testing.T) {
	seen := map[string]int{}
	for _, i := range []int{0, 999999, 1000000, maxSpecFiles - 1} {
		name := Name(i)
		if want := fmt.Sprintf("file-%06d", i); name != want {
			t.Errorf("Name(%d) = %q, want %q", i, name, want)
		}
		if !filepath.IsLocal(name) || filepath.Base(name) != name {
			t.Errorf("Name(%d) = %q is not one local path element", i, name)
		}
		if j, dup := seen[name]; dup {
			t.Errorf("Name(%d) = Name(%d) = %q", i, j, name)
		}
		seen[name] = i
		if back, err := strconv.Atoi(strings.TrimPrefix(name, "file-")); err != nil || back != i {
			t.Errorf("Name(%d) = %q reads back as %d (%v)", i, name, back, err)
		}
	}
}

// TestParseSpecBytes: a dataset is its sizes, so generating the most
// files a spec may ask for allocates their eight bytes each and little
// else: at most 8.5 MiB for 2^20 files.
func TestParseSpecBytes(t *testing.T) {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ParseSpec(fmt.Sprintf("lognormal:%d:48KiB:1.2", maxSpecFiles), 7); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 17<<19 {
		t.Fatalf("ParseSpec of %d files allocated %d bytes, budget 8.5 MiB", maxSpecFiles, least)
	}
}
