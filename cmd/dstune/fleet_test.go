package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstune"
)

// TestRunFleetDedupedDurableIdentities is the fleet dedup regression:
// two sessions with the same name must end up with distinct checkpoint
// files AND distinct history keys — the deduplicated IDs ("bulk",
// "bulk-2") are spliced into both before anything durable is written.
func TestRunFleetDedupedDurableIdentities(t *testing.T) {
	dir := t.TempDir()
	spec := `{
		"testbed": "uchicago",
		"seed": 1,
		"epoch": 30,
		"budget": 60,
		"sessions": [
			{"name": "bulk", "tuner": "cs-tuner"},
			{"name": "bulk", "tuner": "cs-tuner"}
		]
	}`
	specPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	histPath := filepath.Join(dir, "runs.jsonl")
	store, err := dstune.OpenHistory(histPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ckPath := filepath.Join(dir, "run.ck")
	if err := runFleet(specPath, nil, ckPath, store); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{"run-bulk.ck", "run-bulk-2.ck"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("checkpoint %s missing: %v", want, err)
		}
	}
	for _, ep := range []string{"uchicago/bulk", "uchicago/bulk-2"} {
		if recs := recordsIn(t, histPath, ep); len(recs) != 1 {
			t.Errorf("endpoint %s holds %d records, want 1", ep, len(recs))
		}
	}
}

// TestFleetRefusesWeight: a session is one transfer, with nothing to be
// weighed against, so a fleet file has no "weight" key — strictly
// decoded, it is an unknown one.
func TestFleetRefusesWeight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	spec := `{"testbed": "uchicago", "sessions": [{"name": "bulk", "tuner": "cs-tuner", "weight": 3}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadFleet(path); err == nil || !strings.Contains(err.Error(), `"weight"`) {
		t.Fatalf("loadFleet = %v, want the weight key refused by name", err)
	}
}

// TestFleetRefusesWithdrawnStrategy: a fleet session naming a strategy
// that is no registry row — the withdrawn two-phase, or any name behind
// the withdrawn kernel-aware: prefix — is refused by that name.
func TestFleetRefusesWithdrawnStrategy(t *testing.T) {
	for _, name := range []string{"two-phase", "kernel-aware:cs-tuner"} {
		path := filepath.Join(t.TempDir(), "fleet.json")
		spec := `{"testbed": "uchicago", "budget": 60, "sessions": [{"name": "s", "tuner": "` + name + `"}]}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadFleet(path); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("loadFleet = %v, want %s refused by name", err, name)
		}
	}
}
