package experiment

import (
	"fmt"
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
	out := outcome(t, "warm")
	if len(out.Traces) != 16 {
		t.Fatalf("study holds %d traces, want cold and warm for 2 tuners x 4 loads", len(out.Traces))
	}
	for _, name := range []string{"cs-tuner", "cd-tuner"} {
		for _, l := range WarmStartLoads() {
			p := fmt.Sprintf("warm/%s/tfr%d/", name, l.Tfr)
			cold, warm := traceOf(t, out, p+"cold"), traceOf(t, out, p+"warm")
			if target := max(cold.SteadyMean(warmWindow), warm.SteadyMean(warmWindow)); target <= 0 {
				t.Errorf("%s under %s: no critical-point target", name, l)
				continue
			}
			if we, ce := metric(t, out, p+"warm-epochs"), metric(t, out, p+"cold-epochs"); we >= ce {
				t.Errorf("%s under %s: warm start took %v epochs to critical, cold %v — want strictly fewer", name, l, we, ce)
			}
			if wb, cb := metric(t, out, p+"warm-GB"), metric(t, out, p+"cold-GB"); wb < cb {
				t.Errorf("%s under %s: warm integral %.3g GB below cold %.3g GB", name, l, wb, cb)
			}
		}
	}
	if t.Failed() {
		t.Log("\n" + out.Text)
	}
}

// TestWarmStartStudyDefaults: the pinned study runs cs-tuner and
// cd-tuner over WarmStartLoads, tuner-major; every cell's prediction —
// its cold run's best epoch — is a concurrency vector the text shows,
// both traces are retained, and the text renders a row per cell.
func TestWarmStartStudyDefaults(t *testing.T) {
	out := outcome(t, "warm")
	names, loads := []string{"cs-tuner", "cd-tuner"}, WarmStartLoads()
	// A title line and a header line, then one row per cell.
	rows := strings.Split(strings.TrimSpace(out.Text), "\n")
	if len(rows) != 2+len(names)*len(loads) {
		t.Fatalf("text has %d lines, want 2 + %d cells:\n%s", len(rows), len(names)*len(loads), out.Text)
	}
	for i, row := range rows[2:] {
		name, l := names[i/len(loads)], loads[i%len(loads)]
		p := fmt.Sprintf("warm/%s/tfr%d/", name, l.Tfr)
		cold := traceOf(t, out, p+"cold")
		traceOf(t, out, p+"warm")
		pred, _, ok := cold.BestEpoch()
		if !ok || len(pred) != 1 || pred[0] < 1 {
			t.Fatalf("%s under %s: prediction %v not a concurrency vector", name, l, pred)
		}
		if want := fmt.Sprintf("%-10s %-12s %-10s ", name, l, fmt.Sprint(pred)); !strings.HasPrefix(row, want) {
			t.Fatalf("row %d is %q, want it to open %q", i, row, want)
		}
	}
}
