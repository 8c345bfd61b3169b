package history

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSizeClass(t *testing.T) {
	cases := []struct {
		bytes float64
		want  int
	}{
		{-1, -1}, {0, -1}, {math.Inf(1), -1}, // unbounded / +Inf
		{1, 0}, {1 << 20, 0}, {2 << 20, 1}, {3 << 20, 1},
		{4 << 20, 2}, {1 << 30, 10}, {5e9, 12},
	}
	for _, tc := range cases {
		if got := SizeClass(tc.bytes); got != tc.want {
			t.Errorf("SizeClass(%v) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestLoadClass(t *testing.T) {
	cases := []struct{ level, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3},
		{16, 5}, {32, 6}, {64, 7},
	}
	for _, tc := range cases {
		if got := LoadClass(tc.level); got != tc.want {
			t.Errorf("LoadClass(%d) = %d, want %d", tc.level, got, tc.want)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 0}, X: []int{14}, Throughput: 3.1e8, Tuner: "cs-tuner", Epochs: 40},
		{Key: Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 5}, X: []int{22, 4}, Throughput: 2.2e8, Tuner: "cd-tuner", Epochs: 55},
		{Key: Key{Endpoint: "tacc", SizeClass: 12, LoadClass: 0}, X: []int{8}, Throughput: 5e8},
	}
	for _, r := range recs {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != len(recs) {
		t.Fatalf("reopened store holds %d records, want %d", re.Len(), len(recs))
	}
	if got := records(re, "uchicago"); len(got) != 2 || !reflect.DeepEqual(got[0], recs[0]) {
		t.Fatalf("records(uchicago) = %+v", got)
	}
	// Appends after reopen extend, not clobber.
	extra := Record{Key: Key{Endpoint: "tacc", SizeClass: 12, LoadClass: 1}, X: []int{6}, Throughput: 4e8}
	if err := re.Add(extra); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != len(recs)+1 {
		t.Fatalf("after append-reopen store holds %d records, want %d", again.Len(), len(recs)+1)
	}
}

func TestLookup(t *testing.T) {
	s := NewMemStore()
	add := func(ep string, size, load int, x []int, tp float64) {
		t.Helper()
		if err := s.Add(Record{Key: Key{Endpoint: ep, SizeClass: size, LoadClass: load}, X: x, Throughput: tp}); err != nil {
			t.Fatal(err)
		}
	}
	add("uchicago", -1, 0, []int{10}, 2e8)
	add("uchicago", -1, 0, []int{14}, 3e8) // better record at the same key
	add("uchicago", -1, 5, []int{20}, 1.5e8)
	add("tacc", -1, 0, []int{30}, 9e8)

	// Exact match picks the highest throughput at the key.
	e, ok := s.Lookup(Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 0})
	if !ok || !reflect.DeepEqual(e.X, []int{14}) || e.Distance != 0 {
		t.Fatalf("exact lookup = %+v ok=%v", e, ok)
	}
	// Nearest neighbor across load buckets.
	e, ok = s.Lookup(Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 6})
	if !ok || !reflect.DeepEqual(e.X, []int{20}) || e.Distance != 1 {
		t.Fatalf("nearest lookup = %+v ok=%v", e, ok)
	}
	// Never crosses endpoints.
	if _, ok := s.Lookup(Key{Endpoint: "lbl", SizeClass: -1, LoadClass: 0}); ok {
		t.Fatal("lookup crossed endpoints")
	}
	// Mutating a result must not corrupt the store.
	e, _ = s.Lookup(Key{Endpoint: "tacc", SizeClass: -1, LoadClass: 0})
	e.X[0] = 99
	if e2, _ := s.Lookup(Key{Endpoint: "tacc", SizeClass: -1, LoadClass: 0}); e2.X[0] != 30 {
		t.Fatal("lookup result aliases store memory")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	s := NewMemStore()
	bad := []Record{
		{X: []int{2}, Throughput: 1},                                    // no endpoint
		{Key: Key{Endpoint: "a"}, Throughput: 1},                        // no vector
		{Key: Key{Endpoint: "a"}, X: []int{0}, Throughput: 1},           // coordinate < 1
		{Key: Key{Endpoint: "a"}, X: []int{2}, Throughput: -1},          // negative
		{Key: Key{Endpoint: "a"}, X: []int{2}, Throughput: math.Inf(1)}, // +Inf
	}
	for i, r := range bad {
		if err := s.Add(r); err == nil {
			t.Errorf("record %d accepted: %+v", i, r)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d records after rejected adds", s.Len())
	}
}

// TestOpenSkipsTornTail is the crash-recovery property: a file whose
// final line was torn mid-append loads every complete record, reports
// the damage through ErrCorrupt, and keeps accepting appends.
func TestOpenSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	good := `{"key":{"endpoint":"uchicago","size_class":-1,"load_class":0},"x":[12],"throughput":2e8}` + "\n"
	torn := `{"key":{"endpoint":"uchicago","size_class":-1,"load_class":5},"x":[20],"thr`
	if err := os.WriteFile(path, []byte(good+good+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if s == nil {
		t.Fatalf("torn tail made Open fail outright: %v", err)
	}
	defer s.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
	if s.Len() != 2 || s.skipped != 1 {
		t.Fatalf("loaded %d records, skipped %d; want 2 and 1", s.Len(), s.skipped)
	}
	// The next append must still land on its own line and be readable.
	if err := s.Add(Record{Key: Key{Endpoint: "uchicago", SizeClass: 3, LoadClass: 1}, X: []int{7}, Throughput: 1e8}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(path)
	if re == nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("after recovery append the store reloads %d records, want 3", re.Len())
	}
}

// TestOpenSkipsGarbageLines: hand-damaged and semantically invalid
// lines are skipped with an error, never a panic, and never poison the
// surrounding records.
func TestOpenSkipsGarbageLines(t *testing.T) {
	lines := []string{
		`{"key":{"endpoint":"a","size_class":0,"load_class":0},"x":[2],"throughput":1}`,
		`not json at all`,
		`{}`,
		`{"key":{"endpoint":"a"},"x":[],"throughput":1}`,
		`{"key":{"endpoint":"a"},"x":[2],"throughput":-5}`,
		`null`,
		``,
		`{"key":{"endpoint":"b","size_class":1,"load_class":2},"x":[4,8],"throughput":3}`,
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if s == nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if s.Len() != 2 {
		t.Fatalf("loaded %d records, want 2", s.Len())
	}
	// The blank line is tolerated silently; 5 lines are damage.
	if s.skipped != 5 {
		t.Fatalf("skipped %d lines, want 5", s.skipped)
	}
}

// TestOpenOverlongLine: a line beyond the scanner limit cannot panic
// or block loading; the records before it survive.
func TestOpenOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	good := `{"key":{"endpoint":"a","size_class":0,"load_class":0},"x":[2],"throughput":1}` + "\n"
	long := strings.Repeat("x", maxLine+10)
	if err := os.WriteFile(path, []byte(good+long), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if s == nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if s.Len() != 1 {
		t.Fatalf("loaded %d records, want 1", s.Len())
	}
}

func TestMemStoreClose(t *testing.T) {
	s := NewMemStore()
	if err := s.Add(Record{Key: Key{Endpoint: "a"}, X: []int{2}, Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	var nilStore *Store
	if err := nilStore.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 6}
	if got, want := k.String(), "uchicago/size=-1/load=6"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if !(Key{}).IsZero() || k.IsZero() {
		t.Fatal("IsZero misreports")
	}
	if fmt.Sprint(k) != k.String() {
		t.Fatal("Stringer not wired")
	}
}

// records returns s's records for endpoint in insertion order (every
// endpoint's when endpoint is empty).
func records(s *Store, endpoint string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, rec := range s.recs {
		if endpoint == "" || rec.Key.Endpoint == endpoint {
			out = append(out, rec)
		}
	}
	return out
}
