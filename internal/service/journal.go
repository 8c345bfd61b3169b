package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dstune/internal/fsx"
)

// JournalEntry is one accepted job's durable intent record: everything
// a restarted daemon needs to reconstruct and re-adopt the job. The
// entry is written atomically before the submission is acknowledged
// and removed (with a directory sync) only when the job reaches a
// terminal state — so the journal directory is, at every instant, the
// exact set of jobs the daemon still owes work.
type JournalEntry struct {
	// ID is the job's identifier (also the entry's filename stem).
	ID string `json:"id"`
	// Tenant attributes the job for quotas.
	Tenant string `json:"tenant"`
	// Spec is the job as submitted, with defaults applied.
	Spec JobSpec `json:"spec"`
	// Seq is the admission sequence number, restored on adoption so
	// auto-assigned IDs never collide across restarts.
	Seq int `json:"seq"`
}

// Journal is the daemon's crash-safe job intent log: one JSON file per
// accepted job in a dedicated directory, written with the stack's
// atomic write-rename-syncdir discipline (internal/fsx). Methods are
// not concurrency-safe; the Supervisor serializes access under its
// lock.
type Journal struct {
	dir string
}

// OpenJournal creates (if needed) and opens the journal directory.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := fsx.SyncDir(filepath.Dir(dir)); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// path returns the entry file for id.
func (j *Journal) path(id string) string {
	return filepath.Join(j.dir, id+".json")
}

// Append durably records e. It must complete before the submission is
// acknowledged: a job the client believes accepted is always either
// journaled or rejected, never in between.
func (j *Journal) Append(e JournalEntry) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("service: journal %s: %w", e.ID, err)
	}
	data = append(data, '\n')
	if err := fsx.WriteAtomic(j.path(e.ID), data, 0o644); err != nil {
		return fmt.Errorf("service: journal %s: %w", e.ID, err)
	}
	return nil
}

// Remove durably forgets id: the entry file is unlinked and the
// directory synced, so a crash after Remove never resurrects the job.
// Removing an absent entry is not an error (a cancelled queued job may
// race its own completion).
func (j *Journal) Remove(id string) error {
	if err := os.Remove(j.path(id)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: journal remove %s: %w", id, err)
	}
	return fsx.SyncDir(j.dir)
}

// Entries scans the journal and returns every parseable entry sorted
// by (Seq, ID) — the daemon's adoption set after a restart. Entries
// that fail to parse are counted in skipped and left on disk for
// inspection, not deleted: a half-written temp file (dot-prefixed)
// never matches the scan in the first place because Append is atomic.
// A tuner name this build does not know is no damage: such a job is
// adopted and fails, by that name, when it runs.
func (j *Journal) Entries() (entries []JournalEntry, skipped int, err error) {
	names, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("service: journal scan: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			skipped++
			continue
		}
		var e JournalEntry
		err = json.Unmarshal(data, &e)
		shape := e.Spec
		shape.Tuner = ""
		if err != nil || e.ID != strings.TrimSuffix(name, ".json") || shape.Validate() != nil {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Seq != entries[b].Seq {
			return entries[a].Seq < entries[b].Seq
		}
		return entries[a].ID < entries[b].ID
	})
	return entries, skipped, nil
}
