package experiment

import (
	"strings"
	"testing"
)

// dynCell finds the (schedule, tuner) cell in a study result.
func dynCell(t *testing.T, res *DynamicLoadResult, sched, tun string) *DynamicLoadCell {
	t.Helper()
	for i := range res.Cells {
		if res.Cells[i].Schedule == sched && res.Cells[i].Tuner == tun {
			return &res.Cells[i]
		}
	}
	t.Fatalf("study has no cell (%s, %s)", sched, tun)
	return nil
}

// TestRLBeatsDirectSearchOnDynamicLoad is the tentpole acceptance
// criterion: on at least one step or square load schedule, the learned
// strategy moves strictly more payload AND re-adapts strictly
// faster after every shift (lower mean lag) than cd-tuner, cs-tuner,
// and nm-tuner — because a policy that has seen a load level before
// switches vectors on the next epoch instead of re-searching — while
// on constant load that same strategy stays within 10% of the best
// direct search's integral.
func TestRLBeatsDirectSearchOnDynamicLoad(t *testing.T) {
	direct := []string{"cd-tuner", "cs-tuner", "nm-tuner"}
	learned := []string{"rl-bandit"}
	// Pinned: seed 7, 1800 s, the step, square and constant schedules.
	res := raw[*DynamicLoadResult](t, "dynload")

	var winner, winSched string
	for _, sc := range []string{"step", "square"} {
		for _, rl := range learned {
			c := dynCell(t, res, sc, rl)
			wins := true
			for _, d := range direct {
				dc := dynCell(t, res, sc, d)
				if !(c.Bytes > dc.Bytes && c.MeanLag < dc.MeanLag) {
					wins = false
					break
				}
			}
			if wins {
				winner, winSched = rl, sc
				break
			}
		}
		if winner != "" {
			break
		}
	}
	if winner == "" {
		t.Fatalf("no learned strategy strictly beats cd/cs/nm on any dynamic schedule:\n%s", res.Report())
	}
	t.Logf("%s wins on %s\n%s", winner, winSched, res.Report())

	bestDirect := 0.0
	for _, d := range direct {
		if b := dynCell(t, res, "constant", d).Bytes; b > bestDirect {
			bestDirect = b
		}
	}
	wc := dynCell(t, res, "constant", winner)
	if wc.Bytes < 0.9*bestDirect {
		t.Fatalf("%s on constant load moved %.3g B, below 90%% of the best direct search's %.3g B:\n%s",
			winner, wc.Bytes, bestDirect, res.Report())
	}
}

// TestDynamicLoadStudyShape checks the harness plumbing on a short
// run: cell layout, per-shift lag vectors, the shift-free control, and
// the report rendering.
func TestDynamicLoadStudyShape(t *testing.T) {
	res, err := DynamicLoadStudy(ANLtoUChicago(), DynamicLoadConfig{
		Run:    RunConfig{Seed: 5, Duration: 300},
		Tuners: []string{"cs-tuner", "rl-bandit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	scheds := DynamicSchedules(300)
	if len(res.Cells) != len(scheds)*2 {
		t.Fatalf("study holds %d cells, want %d", len(res.Cells), len(scheds)*2)
	}
	for _, sc := range scheds {
		for _, tun := range []string{"cs-tuner", "rl-bandit"} {
			c := dynCell(t, res, sc.Name, tun)
			if c.Trace == nil || len(c.Trace.Results) == 0 {
				t.Fatalf("(%s, %s): empty trace", sc.Name, tun)
			}
			if len(c.Lags) != len(sc.Shifts) {
				t.Fatalf("(%s, %s): %d lags for %d shifts", sc.Name, tun, len(c.Lags), len(sc.Shifts))
			}
			if c.Bytes <= 0 {
				t.Fatalf("(%s, %s): no payload moved", sc.Name, tun)
			}
		}
	}
	rep := res.Report()
	for _, want := range []string{"step", "square", "piecewise", "constant", "rl-bandit"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report lacks %q:\n%s", want, rep)
		}
	}
}

// TestDynamicLoadStudyDeterministic: equal seeds, equal studies.
func TestDynamicLoadStudyDeterministic(t *testing.T) {
	cfg := DynamicLoadConfig{
		Run:    RunConfig{Seed: 9, Duration: 300},
		Tuners: []string{"rl-bandit"},
	}
	a, err := DynamicLoadStudy(ANLtoUChicago(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DynamicLoadStudy(ANLtoUChicago(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("same seed, different studies:\n%s\nvs\n%s", a.Report(), b.Report())
	}
}
