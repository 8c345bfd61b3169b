package service

import (
	"os"
	"path/filepath"
	"testing"
)

// TestJournalRoundTrip pins the append/scan/remove cycle and the
// adoption ordering: entries come back sorted by admission sequence.
func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []JournalEntry{
		{ID: "b", Tenant: "t", Spec: JobSpec{ID: "b", Bytes: 2}, Seq: 2},
		{ID: "a", Tenant: "t", Spec: JobSpec{ID: "a", Bytes: 1}, Seq: 1},
		{ID: "c", Tenant: "t", Spec: JobSpec{ID: "c", Bytes: 3}, Seq: 3},
	}
	for _, e := range specs {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	entries, skipped, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(entries) != 3 {
		t.Fatalf("scan = %d entries, %d skipped", len(entries), skipped)
	}
	for i, want := range []string{"a", "b", "c"} {
		if entries[i].ID != want {
			t.Fatalf("entry %d = %q, want %q (seq order)", i, entries[i].ID, want)
		}
	}

	if err := j.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove("b"); err != nil {
		t.Fatalf("idempotent remove: %v", err)
	}
	entries, _, err = j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("after remove: %d entries, want 2", len(entries))
	}
}

// TestJournalSkipsDamage pins the scan's robustness: corrupt files,
// mismatched IDs, invalid specs, and stray temp files never abort
// adoption — they are counted and left in place while healthy entries
// still load. A tuner this build does not know is no damage: that entry
// loads, and its job fails by the name when it runs
// (TestWithdrawnStrategyJobFailsByName).
func TestJournalSkipsDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalEntry{ID: "good", Spec: JobSpec{ID: "good", Bytes: 1}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	damage := map[string]string{
		"torn.json":    `{"id": "torn", "spe`,
		"renamed.json": `{"id": "other-name", "spec": {"id": "other-name", "bytes": 1}}`,
		"badspec.json": `{"id": "badspec", "spec": {"id": "badspec", "max_nc": -5, "bytes": 1}}`,
		"nope.json":    `{"id": "nope", "spec": {"id": "nope", "tuner": "nope", "bytes": 1}, "seq": 2}`,
		".tmp-half":    `{"id": "half"`,
		"notes.txt":    `not a journal entry`,
	}
	for name, body := range damage {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, skipped, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != "good" || entries[1].ID != "nope" {
		t.Fatalf("entries = %+v, want \"good\" and \"nope\"", entries)
	}
	// Only the three damaged .json files count; dotfiles and foreign
	// extensions are silently out of scope.
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3", skipped)
	}
	// Damaged files stay on disk for inspection.
	if _, err := os.Stat(filepath.Join(dir, "torn.json")); err != nil {
		t.Fatalf("damaged entry was deleted: %v", err)
	}
}
