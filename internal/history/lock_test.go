package history

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentStoresShareFile pins the cross-process append
// contract: two independent Stores on one file (each with its own open
// file description, exactly like a daemon and a CLI sharing a
// knowledge base) append concurrently without interleaving or tearing
// a single record. flock serializes the writers and O_APPEND pins
// every write to the true end of file, so a reopen parses every line.
func TestConcurrentStoresShareFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	s1, err := Open(path)
	if err != nil {
		t.Fatalf("Open s1: %v", err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open s2: %v", err)
	}

	const perWriter = 100
	var wg sync.WaitGroup
	for w, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{
					Key: Key{Endpoint: fmt.Sprintf("ep-%d", w), SizeClass: i % 7, LoadClass: i % 5},
					// A long vector makes each line big enough that a
					// torn interleave could not still parse by luck.
					X:          []int{w + 1, i + 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
					Throughput: float64(i + 1),
					Tuner:      "cs-tuner",
					Epochs:     i,
				}
				if err := s.Add(rec); err != nil {
					t.Errorf("writer %d add %d: %v", w, i, err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	if err := s1.Close(); err != nil {
		t.Fatalf("close s1: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close s2: %v", err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("reopen found corruption: %v", err)
	}
	defer reopened.Close()
	if got := reopened.skipped; got != 0 {
		t.Fatalf("reopen skipped %d lines, want 0", got)
	}
	if got, want := reopened.Len(), 2*perWriter; got != want {
		t.Fatalf("reopen holds %d records, want %d", got, want)
	}
	for w := 0; w < 2; w++ {
		if got := len(records(reopened, fmt.Sprintf("ep-%d", w))); got != perWriter {
			t.Fatalf("endpoint ep-%d has %d records, want %d", w, got, perWriter)
		}
	}
}

// TestOpenRecoveryHoldsLock pins that a store opened while another
// holds the file keeps working: the second Open's recovery scan runs
// under the lock and sees only complete records.
func TestOpenRecoveryHoldsLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	s1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if err := s1.Add(Record{Key: Key{Endpoint: "e"}, X: []int{4}, Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second open: %v", err)
	}
	if err != nil {
		t.Fatalf("second open reported corruption on a clean file: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("second store sees %d records, want 1", s2.Len())
	}
}
