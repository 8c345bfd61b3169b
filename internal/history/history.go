// Package history is the stack's knowledge plane: an append-only,
// crash-safe JSONL store of past tuning outcomes, keyed by endpoint
// identity, dataset size class, and external-load fingerprint. A
// tuning session records the best parameter vector a run found; a
// later run against the same — or a nearby — key warm-starts
// its search from that vector instead of the fixed cold-start point,
// following the offline-knowledge + online-refinement designs of Nine
// et al. (arXiv:1707.09455) and Arslan & Kosar (arXiv:1708.03053).
//
// The file format is one JSON object per line (a Record). Appends are
// fsynced and the containing directory is synced when the file is
// created, so a completed Add survives a crash; a torn final line from
// a crash mid-append is skipped on the next Open, reported through
// ErrCorrupt, and truncated away (write-ahead-log recovery) so later
// appends stay line-framed. The file is opened O_APPEND and every
// append (and Open's recovery) holds an exclusive advisory flock, so
// independent Stores sharing one file — a daemon and a CLI, say —
// serialize their writes instead of interleaving torn records.
package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"dstune/internal/fsx"
)

// ErrCorrupt marks an Open that skipped unreadable lines. The store
// returned alongside it holds every line that did parse and remains
// fully usable; the error exists so operators learn that history was
// lost. Test with errors.Is.
var ErrCorrupt = errors.New("history: corrupt entries skipped")

// Key identifies a transfer context: where the data goes, how much of
// it there is, and how contended the source was. Two runs with equal
// keys are expected to share an optimal operating point.
type Key struct {
	// Endpoint identifies the far end: a testbed name for simulated
	// transfers, the server address for socket transfers. Lookups
	// never cross endpoints.
	Endpoint string `json:"endpoint"`
	// SizeClass is the dataset size bucket from SizeClass: -1 for
	// unbounded transfers, otherwise the floor of log2 of the volume
	// in MB.
	SizeClass int `json:"size_class"`
	// LoadClass is the external-load bucket from LoadClass: 0 for an
	// unloaded source, otherwise floor(log2(level))+1.
	LoadClass int `json:"load_class"`
}

// IsZero reports whether the key is the zero value (no endpoint).
func (k Key) IsZero() bool { return k == Key{} }

// String implements fmt.Stringer.
func (k Key) String() string {
	return fmt.Sprintf("%s/size=%d/load=%d", k.Endpoint, k.SizeClass, k.LoadClass)
}

// SizeClass buckets a transfer volume in bytes into a power-of-two MB
// class: -1 for unbounded (non-positive or infinite) volumes, 0 for
// anything up to 2 MB, then one class per doubling.
func SizeClass(bytes float64) int {
	if bytes <= 0 || math.IsInf(bytes, 1) || math.IsNaN(bytes) {
		return -1
	}
	mb := bytes / (1 << 20)
	if mb <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(mb)))
}

// LoadClass buckets an external-load level (for the simulator: tfr +
// cmp) into 0 for unloaded, else floor(log2(level))+1 — so levels
// 1, 2-3, 4-7, 8-15, … land in classes 1, 2, 3, 4, … and the paper's
// {0, 16, 32, 64} sweep maps to {0, 5, 6, 7}.
func LoadClass(level int) int {
	if level <= 0 {
		return 0
	}
	c := 1
	for level > 1 {
		level >>= 1
		c++
	}
	return c
}

// Record is one stored tuning outcome: the key it ran under, the best
// parameter vector the run found, and the throughput observed there.
type Record struct {
	// Key is the transfer context the run tuned under.
	Key Key `json:"key"`
	// X is the best-known parameter vector.
	X []int `json:"x"`
	// Throughput is the observed throughput at X in bytes/second.
	Throughput float64 `json:"throughput"`
	// Tuner names the strategy that produced the record.
	Tuner string `json:"tuner,omitempty"`
	// Epochs is the number of control epochs the run took.
	Epochs int `json:"epochs,omitempty"`
}

// validate reports whether the record is storable.
func (r Record) validate() error {
	if r.Key.Endpoint == "" {
		return errors.New("history: record has no endpoint")
	}
	if len(r.X) == 0 {
		return errors.New("history: record has no parameter vector")
	}
	for _, v := range r.X {
		if v < 1 {
			return fmt.Errorf("history: record vector %v has a coordinate < 1", r.X)
		}
	}
	if r.Throughput < 0 || math.IsInf(r.Throughput, 0) || math.IsNaN(r.Throughput) {
		return fmt.Errorf("history: record throughput %v is not a finite non-negative number", r.Throughput)
	}
	return nil
}

// Entry is a Lookup result: the best-known vector for the queried key
// (or its nearest neighbor), the throughput observed there, and the
// bucket distance of the match (0 = exact key).
type Entry struct {
	// X is the best-known parameter vector.
	X []int
	// Throughput is the observed throughput at X in bytes/second.
	Throughput float64
	// Distance is |Δsize_class| + |Δload_class| between the queried
	// and the matched key; 0 means an exact match.
	Distance int
}

// Store is the append-only history store. The zero value is not
// usable; construct with Open (file-backed) or NewMemStore (memory
// only, for tests and experiments). Store is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	recs    []Record
	f       *os.File
	skipped int
}

// maxLine bounds one JSONL record (a defense against a corrupt file
// presenting an unbounded line).
const maxLine = 1 << 20

// Open loads the history at path, creating the file if absent, and
// keeps it open for appends. Unparseable or invalid lines — a torn
// tail from a crash mid-append, hand-edited damage — are skipped, not
// fatal: the store returns usable alongside an ErrCorrupt-wrapped
// error counting them. A torn (newline-less) tail is additionally
// truncated away, write-ahead-log style, so appends after recovery
// stay line-framed. Only a nil *Store result signals failure.
//
// The file is opened in append mode and every append (and Open's
// recovery scan) runs under an exclusive advisory flock, so multiple
// Stores on one file — a daemon and a CLI sharing one knowledge base —
// serialize their writes and can never interleave torn records. Each
// Store still only serves the records it has itself read or written;
// the lock guarantees framing and durability, not a shared cache.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	// The recovery scan reads, decides, and truncates under the lock,
	// so it can never race another store's in-flight append (and
	// mistake its half-written line for a torn tail).
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	defer unlockFile(f)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{f: f}
	valid := len(data)
	if valid > 0 && data[valid-1] != '\n' {
		// A crash mid-append left a torn final line: count it, drop
		// it, and truncate the file back to its last complete line.
		valid = bytes.LastIndexByte(data, '\n') + 1
		s.skipped++
		data = data[:valid]
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec Record
		if len(line) > maxLine {
			s.skipped++
			continue
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.validate() != nil {
			s.skipped++
			continue
		}
		s.recs = append(s.recs, rec)
	}
	// O_APPEND positions every write at the current end of file, so no
	// seek is needed after the truncate — and a later append can never
	// land inside (or before) another store's record.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, err
	}
	if s.skipped > 0 {
		return s, fmt.Errorf("%w: %s: %d of %d lines", ErrCorrupt, path, s.skipped, s.skipped+len(s.recs))
	}
	return s, nil
}

// NewMemStore returns a memory-only store: Add and Lookup work, no
// file is written, Close is a no-op.
func NewMemStore() *Store { return &Store{} }

// Add validates rec, appends it to the store, and — for a file-backed
// store — durably appends it as one JSON line (written and fsynced
// before Add returns, so a completed Add survives a crash).
func (s *Store) Add(rec Record) error {
	if err := rec.validate(); err != nil {
		return err
	}
	rec.X = append([]int(nil), rec.X...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		// The flock serializes this append against every other Store
		// on the file (in this process or another); O_APPEND makes the
		// write land at the true end of file regardless of what they
		// appended since our Open.
		if err := lockFile(s.f); err != nil {
			return fmt.Errorf("history: append lock: %w", err)
		}
		_, werr := s.f.Write(line)
		serr := s.f.Sync()
		uerr := unlockFile(s.f)
		if werr != nil {
			return fmt.Errorf("history: append: %w", werr)
		}
		if serr != nil {
			return fmt.Errorf("history: append sync: %w", serr)
		}
		if uerr != nil {
			return fmt.Errorf("history: append unlock: %w", uerr)
		}
	}
	s.recs = append(s.recs, rec)
	return nil
}

// Lookup returns the best-known entry for key: the highest-throughput
// record at the exact key when one exists, otherwise the nearest
// neighbor across size and load buckets on the same endpoint
// (distance = |Δsize| + |Δload|; at equal distance the higher
// throughput wins, then the earlier record). ok is false when the
// endpoint has no records at all.
func (s *Store) Lookup(key Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := Entry{Distance: math.MaxInt}
	found := false
	for _, rec := range s.recs {
		if rec.Key.Endpoint != key.Endpoint {
			continue
		}
		d := abs(rec.Key.SizeClass-key.SizeClass) + abs(rec.Key.LoadClass-key.LoadClass)
		if !found || d < best.Distance || (d == best.Distance && rec.Throughput > best.Throughput) {
			best = Entry{X: append([]int(nil), rec.X...), Throughput: rec.Throughput, Distance: d}
			found = true
		}
	}
	return best, found
}

// Len reports the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Close syncs and closes the backing file. Close is idempotent and a
// no-op for memory stores.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
