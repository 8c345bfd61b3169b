package dataset

import (
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
	if d.Files[3].Name != "file-000003" {
		t.Fatalf("name %q", d.Files[3].Name)
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
	d := Dataset{Files: []File{{Size: 1}, {Size: 3}, {Size: 100}, {Size: 2}}}
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
	for _, f := range d.Files {
		if f.Size < 1 {
			t.Fatal("size below 1 byte")
		}
	}
}

func TestLogNormalDeterministic(t *testing.T) {
	a := LogNormal(100, 1e6, 1, 3)
	b := LogNormal(100, 1e6, 1, 3)
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatal("same seed differs")
		}
	}
	c := LogNormal(100, 1e6, 1, 4)
	same := true
	for i := range a.Files {
		if a.Files[i].Size != c.Files[i].Size {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestRegimes(t *testing.T) {
	small := ManySmall(100)
	if small.TotalBytes() != 100<<20 {
		t.Fatalf("ManySmall total %d", small.TotalBytes())
	}
	huge := FewHuge(2)
	if huge.TotalBytes() != 20<<30 {
		t.Fatalf("FewHuge total %d", huge.TotalBytes())
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
			d.Files = append(d.Files, File{Size: int64(s)})
			want += int64(s)
		}
		return d.TotalBytes() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
