package experiment

import (
	"fmt"
	"reflect"
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

// TestDynamicLoadStudyShape checks the harness plumbing on the pinned
// study: cell layout (schedule-major, every tuner on every schedule the
// study runs), per-shift lag vectors, the shift-free control, and the
// report rendering.
func TestDynamicLoadStudyShape(t *testing.T) {
	res := raw[*DynamicLoadResult](t, "dynload")
	tuners := []string{"cd-tuner", "cs-tuner", "nm-tuner", "rl-bandit"}
	// Pinned, the study leaves out the piecewise schedule.
	var scheds []DynamicSchedule
	for _, sc := range DynamicSchedules(1800) {
		if sc.Name != "piecewise" {
			scheds = append(scheds, sc)
		}
	}
	if len(res.Cells) != len(scheds)*len(tuners) {
		t.Fatalf("study holds %d cells, want %d", len(res.Cells), len(scheds)*len(tuners))
	}
	rep := res.Report()
	for i, c := range res.Cells {
		sc, tun := scheds[i/len(tuners)], tuners[i%len(tuners)]
		if c.Schedule != sc.Name || c.Tuner != tun {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s)", i, c.Schedule, c.Tuner, sc.Name, tun)
		}
		if c.Trace == nil || len(c.Trace.Results) == 0 {
			t.Fatalf("(%s, %s): empty trace", sc.Name, tun)
		}
		if len(c.Lags) != len(sc.Shifts) {
			t.Fatalf("(%s, %s): %d lags for %d shifts", sc.Name, tun, len(c.Lags), len(sc.Shifts))
		}
		if c.Bytes <= 0 {
			t.Fatalf("(%s, %s): no payload moved", sc.Name, tun)
		}
		for _, want := range []string{sc.Name, tun} {
			if !strings.Contains(rep, want) {
				t.Fatalf("report lacks %q:\n%s", want, rep)
			}
		}
	}
}

// TestDynamicLoadStudyPiecewise runs, short and fresh, the schedule the
// pinned study leaves out — the only one with several shifts that mixes
// transfer and compute load — twice: every tuner gets one lag per shift
// and moves payload, the report names the schedule, and equal seeds
// give equal reports.
func TestDynamicLoadStudyPiecewise(t *testing.T) {
	var piecewise DynamicSchedule
	for _, sc := range DynamicSchedules(300) {
		if sc.Name == "piecewise" {
			piecewise = sc
		}
	}
	cfg := DynamicLoadConfig{
		Run:       RunConfig{Seed: 5, Duration: 300},
		Schedules: []DynamicSchedule{piecewise},
	}
	var reps [2]string
	for i := range reps {
		res, err := DynamicLoadStudy(ANLtoUChicago(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 4 {
			t.Fatalf("study holds %d cells, want 4", len(res.Cells))
		}
		for _, c := range res.Cells {
			if c.Schedule != "piecewise" {
				t.Fatalf("cell (%s, %s) is not piecewise", c.Schedule, c.Tuner)
			}
			if len(c.Lags) != len(piecewise.Shifts) {
				t.Fatalf("%s: %d lags for %d shifts", c.Tuner, len(c.Lags), len(piecewise.Shifts))
			}
			if c.Bytes <= 0 {
				t.Fatalf("%s: no payload moved", c.Tuner)
			}
		}
		reps[i] = res.Report()
		if !strings.Contains(reps[i], "piecewise") {
			t.Fatalf("report lacks %q:\n%s", "piecewise", reps[i])
		}
	}
	if reps[0] != reps[1] {
		t.Fatalf("same seed, different studies:\n%s\nvs\n%s", reps[0], reps[1])
	}
}

// TestDynamicLoadStudyDeterministic: equal seeds, equal studies — every
// rl-bandit cell of the pinned study, run again on a fresh fabric,
// gives the same trace.
func TestDynamicLoadStudyDeterministic(t *testing.T) {
	res := raw[*DynamicLoadResult](t, "dynload")
	rc := study(t, "dynload").Pinned.withDefaults()
	scheds := map[string]DynamicSchedule{}
	for _, sc := range DynamicSchedules(rc.Duration) {
		scheds[sc.Name] = sc
	}
	var cells []DynamicLoadCell
	for _, c := range res.Cells {
		if c.Tuner == "rl-bandit" {
			cells = append(cells, c)
		}
	}
	err := forEachCell(len(cells), func(i int) error {
		c := cells[i]
		tr, err := runTuned(ANLtoUChicago(), c.Tuner, scheds[c.Schedule].Sched, rc, false)
		if err == nil && !reflect.DeepEqual(tr, c.Trace) {
			err = fmt.Errorf("%s on %s: same seed, different trace", c.Tuner, c.Schedule)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
