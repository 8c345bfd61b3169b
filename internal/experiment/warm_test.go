package experiment

import (
	"strings"
	"testing"
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

// TestWarmStartStudyDefaults: the pinned study runs cs-tuner and
// cd-tuner over WarmStartLoads, tuner-major; every cell's prediction is
// a concurrency vector, both traces are retained, and the report
// renders a row per cell.
func TestWarmStartStudyDefaults(t *testing.T) {
	res := raw[*WarmStartResult](t, "warm")
	names, loads := []string{"cs-tuner", "cd-tuner"}, WarmStartLoads()
	if len(res.Cells) != len(names)*len(loads) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(names)*len(loads))
	}
	for i, c := range res.Cells {
		if c.Tuner != names[i/len(loads)] || c.Load != loads[i%len(loads)] {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s)", i, c.Tuner, c.Load, names[i/len(loads)], loads[i%len(loads)])
		}
		if len(c.Pred) != 1 || c.Pred[0] < 1 {
			t.Fatalf("%s under %s: prediction %v not a concurrency vector", c.Tuner, c.Load, c.Pred)
		}
		if c.Cold == nil || c.Warm == nil {
			t.Fatalf("%s under %s: traces not retained", c.Tuner, c.Load)
		}
	}
	// A title line and a header line, then one row per cell.
	if rows := strings.Split(strings.TrimSpace(res.Report()), "\n"); len(rows) != 2+len(res.Cells) {
		t.Fatalf("report has %d lines, want 2 + %d cells:\n%s", len(rows), len(res.Cells), res.Report())
	}
}
