package experiment

import (
	"testing"

	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// TestWarmStartBeatsCold is the knowledge-plane acceptance criterion:
// across the {0, 16, 32, 64} external-load sweep, a warm-started
// cs-tuner and cd-tuner run must reach the critical point in strictly
// fewer epochs than the cold run AND move at least as many bytes over
// the same budget.
func TestWarmStartBeatsCold(t *testing.T) {
	// Pinned: seed 11, 900 s, 30 s epochs; 90% over a 3-epoch window.
	res := raw[*WarmStartResult](t, "warm")
	if len(res.Cells) != 8 {
		t.Fatalf("study holds %d cells, want 2 tuners x 4 loads", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Target <= 0 {
			t.Errorf("%s under %s: no critical-point target", c.Tuner, c.Load)
			continue
		}
		if c.WarmEpochs >= c.ColdEpochs {
			t.Errorf("%s under %s: warm start took %d epochs to critical, cold %d — want strictly fewer",
				c.Tuner, c.Load, c.WarmEpochs, c.ColdEpochs)
		}
		if c.WarmBytes < c.ColdBytes {
			t.Errorf("%s under %s: warm integral %.3g B below cold %.3g B",
				c.Tuner, c.Load, c.WarmBytes, c.ColdBytes)
		}
	}
	if t.Failed() {
		t.Log("\n" + res.Report())
	}
}

// TestWarmStartStudyDefaults: empty tuner and load slices select the
// documented defaults, and the report renders a row per cell.
func TestWarmStartStudyDefaults(t *testing.T) {
	res, err := WarmStartStudy(ANLtoUChicago(), []string{"cs-tuner"},
		[]load.Load{{}}, RunConfig{Seed: 5, Duration: 300, Epoch: 30}, 0.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	c := res.Cells[0]
	if len(c.Pred) != 1 || c.Pred[0] < 1 {
		t.Fatalf("prediction %v not a concurrency vector", c.Pred)
	}
	if c.Cold == nil || c.Warm == nil {
		t.Fatal("traces not retained")
	}
	if got := res.Report(); got == "" {
		t.Fatal("empty report")
	}
}

// TestEpochsToCritical pins the detector on a hand-built trace: ramp
// epochs below the steady mean, then a plateau.
func TestEpochsToCritical(t *testing.T) {
	tr := &tuner.Trace{}
	tputs := []float64{10, 20, 100, 100, 100, 100}
	for i, tp := range tputs {
		tr.Results = append(tr.Results, tuner.EpochResult{
			Epoch:  i,
			X:      []int{1},
			Report: xfer.Report{Throughput: tp},
		})
	}
	if got := EpochsToCritical(tr, 0.9, 2); got != 2 {
		t.Fatalf("critical epoch = %d, want 2", got)
	}
	if got := EpochsToCritical(tr, 0.9, 10); got != -1 {
		t.Fatalf("short trace: got %d, want -1", got)
	}
	flat := &tuner.Trace{Results: tr.Results[2:]}
	if got := EpochsToCritical(flat, 0.9, 2); got != 0 {
		t.Fatalf("flat trace critical epoch = %d, want 0", got)
	}
}
