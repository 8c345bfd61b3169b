package main

import (
	"strings"
	"testing"

	"dstune"
)

func TestResolveStrategyAllNames(t *testing.T) {
	cfg := dstune.TunerConfig{
		Box:   dstune.MustBox([]int{1}, []int{64}),
		Start: []int{2},
		Map:   dstune.MapNC(8),
	}
	names := []string{
		"default", "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2",
		"model", "two-phase", "warm:cs-tuner",
	}
	for _, name := range names {
		tn, err := dstune.ResolveStrategy(name, cfg, nil, dstune.HistoryKey{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tn.Name() != name {
			t.Fatalf("name mismatch %q vs %q", tn.Name(), name)
		}
	}
	if _, err := dstune.ResolveStrategy("bogus", cfg, nil, dstune.HistoryKey{}); err == nil {
		t.Fatal("unknown tuner accepted")
	}
}

// TestResolveStrategyWarmWrap: an open history store wraps plain strategies
// with the warm start (so their checkpoints resume by the warm name),
// but never a resumed run — its state comes from the checkpoint.
func TestResolveStrategyWarmWrap(t *testing.T) {
	cfg := dstune.TunerConfig{
		Box:   dstune.MustBox([]int{1}, []int{64}),
		Start: []int{2},
		Map:   dstune.MapNC(8),
	}
	store := dstune.NewMemHistory()
	tn, err := dstune.ResolveStrategy("cs-tuner", cfg, store, historyKey("sim", "uchicago", "", 0, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "warm:cs-tuner" {
		t.Fatalf("store-backed tuner named %q, want warm:cs-tuner", tn.Name())
	}

	rcfg := cfg
	rcfg.Resume = &dstune.Checkpoint{Tuner: "cs-tuner"}
	tn, err = dstune.ResolveStrategy("cs-tuner", rcfg, store, dstune.HistoryKey{})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "cs-tuner" {
		t.Fatalf("resumed tuner named %q, want the checkpoint's cs-tuner", tn.Name())
	}
}

func TestHistoryKeyDerivation(t *testing.T) {
	k := historyKey("sim", "uchicago", "ignored:1", 0, 0, 16)
	want := dstune.HistoryKey{Endpoint: "uchicago", SizeClass: -1, LoadClass: dstune.HistoryLoadClass(16)}
	if k != want {
		t.Fatalf("sim key = %+v, want %+v", k, want)
	}
	k = historyKey("socket", "uchicago", "127.0.0.1:7632", 5e9, 0, 0)
	if k.Endpoint != "127.0.0.1:7632" || k.SizeClass != dstune.HistorySizeClass(5e9) || k.LoadClass != 0 {
		t.Fatalf("socket key = %+v", k)
	}
}

func TestSimTransferUnknownTestbed(t *testing.T) {
	if _, err := simTransfer("mars", "default", 1, dstune.Load{}, 0, dstune.Load{}, nil, 0, 0); err == nil {
		t.Fatal("unknown testbed accepted")
	}
}

func TestSimTransferDiskMode(t *testing.T) {
	d := dstune.UniformDataset(4, 1<<20)
	tr, err := simTransfer("uchicago", "nm-tuner", 1, dstune.Load{}, 0, dstune.Load{}, &d, 1e9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	if tr.Remaining() != float64(4<<20) {
		t.Fatalf("Remaining = %v, want dataset size", tr.Remaining())
	}
}

func TestSimTransferStepSchedule(t *testing.T) {
	tr, err := simTransfer("tacc", "cs-tuner", 2, dstune.Load{Cmp: 16}, 100, dstune.Load{}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Stop()
}

func TestPrintTraceEmpty(t *testing.T) {
	// Must not panic on an empty trace.
	printTrace(&dstune.Trace{})
}

func TestWriteCSVHelper(t *testing.T) {
	dir := t.TempDir()
	tr := &dstune.Trace{Tuner: "x"}
	path := dir + "/out.csv"
	if err := writeCSV(path, tr); err != nil {
		t.Fatal(err)
	}
}

func TestUsageStringsConsistent(t *testing.T) {
	// The documented tuner list matches what the resolver accepts.
	for _, name := range strings.Split("default,cd-tuner,cs-tuner,nm-tuner,heur1,heur2,model,two-phase,warm:cs-tuner", ",") {
		if _, err := dstune.ResolveStrategy(name, dstune.TunerConfig{
			Box: dstune.MustBox([]int{1}, []int{8}), Start: []int{1}, Map: dstune.MapNC(1),
		}, nil, dstune.HistoryKey{}); err != nil {
			t.Fatalf("documented tuner %q rejected: %v", name, err)
		}
	}
}
