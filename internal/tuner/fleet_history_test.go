package tuner

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstune/internal/history"
	"dstune/internal/xfer"
)

// fleetTestSession builds a one-transfer fleet session over a fake
// world peaked at the given nc.
func fleetTestSession(t *testing.T, name string, peak int) FleetSession {
	t.Helper()
	cfg := cfg1D(0)
	strat, err := NewStrategy("cs-tuner", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return FleetSession{
		Name:      name,
		Strategy:  strat,
		Transfers: []xfer.Transferer{newFake(peaked(peak))},
		Maps:      []ParamMap{cfg.Map},
	}
}

// TestFleetRejectsSharedDurableIdentity is the dedup/durability guard:
// session-ID deduplication ("bulk", "bulk-2") keeps /status apart, but
// checkpoint files and history keys are configured before dedup runs —
// two sessions pointing at one file (or one key) must be rejected, not
// silently interleaved.
func TestFleetRejectsSharedDurableIdentity(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "run.checkpoint")

	a := fleetTestSession(t, "bulk", 10)
	a.Checkpoint = NewFileCheckpoint(ckPath)
	b := fleetTestSession(t, "bulk", 12)
	b.Checkpoint = NewFileCheckpoint(ckPath)
	_, err := NewFleet(FleetConfig{Epoch: 10, Budget: 20}, a, b).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "share checkpoint file") {
		t.Fatalf("shared checkpoint file accepted: %v", err)
	}

	key := history.Key{Endpoint: "uchicago/bulk", SizeClass: -1, LoadClass: 0}
	c := fleetTestSession(t, "bulk", 10)
	c.HistoryKey = key
	d := fleetTestSession(t, "bulk", 12)
	d.HistoryKey = key
	_, err = NewFleet(FleetConfig{Epoch: 10, Budget: 20, History: history.NewMemStore()}, c, d).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "share history key") {
		t.Fatalf("shared history key accepted: %v", err)
	}

	// Distinct durable identities under colliding names are fine: the
	// IDs deduplicate and both sessions run.
	e := fleetTestSession(t, "bulk", 10)
	e.Checkpoint = NewFileCheckpoint(ckPath)
	e.HistoryKey = key
	f := fleetTestSession(t, "bulk", 12)
	f.Checkpoint = NewFileCheckpoint(filepath.Join(t.TempDir(), "run-2.checkpoint"))
	f.HistoryKey = history.Key{Endpoint: "uchicago/bulk-2", SizeClass: -1, LoadClass: 0}
	results, err := NewFleet(FleetConfig{Epoch: 10, Budget: 20, History: history.NewMemStore()}, e, f).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != "bulk" || results[1].ID != "bulk-2" {
		t.Fatalf("session IDs = %q, %q", results[0].ID, results[1].ID)
	}
}

// TestFleetRecordsHistory: sessions ending cleanly record their best
// observed epoch in the shared store under their own keys; keyless
// sessions record nothing.
func TestFleetRecordsHistory(t *testing.T) {
	store := history.NewMemStore()
	keyA := history.Key{Endpoint: "uchicago/bulk", SizeClass: -1, LoadClass: 0}
	a := fleetTestSession(t, "bulk", 10)
	a.HistoryKey = keyA
	b := fleetTestSession(t, "background", 20) // no key: must not record
	results, err := NewFleet(FleetConfig{Epoch: 10, Budget: 60, History: store}, a, b).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("session %s failed: %v", r.ID, r.Err)
		}
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", store.Len())
	}
	bestX, bestTp, ok := results[0].Traces[0].BestEpoch()
	if !ok {
		t.Fatal("session recorded no epochs")
	}
	e, ok := store.Lookup(keyA)
	if !ok || !reflect.DeepEqual(e.X, bestX) || e.Throughput != bestTp {
		t.Fatalf("Lookup = %+v ok=%v, want best epoch %v at %v", e, ok, bestX, bestTp)
	}
	rec := store.Records("uchicago/bulk")[0]
	if rec.Tuner != "cs-tuner" || rec.Epochs != len(results[0].Traces[0].Results) {
		t.Fatalf("record metadata = %+v", rec)
	}
}
