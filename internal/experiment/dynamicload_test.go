package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dstune/internal/tuner"
)

// dynloadRuns returns the traces out holds for schedule sched, in
// dynloadTuners order.
func dynloadRuns(t *testing.T, out *Outcome, sched string) []*tuner.Trace {
	t.Helper()
	var runs []*tuner.Trace
	for _, name := range dynloadTuners {
		runs = append(runs, traceOf(t, out, "dynload/"+sched+"/"+name))
	}
	return runs
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
	out := outcome(t, "dynload")
	gb := func(sched, tun string) float64 { return metric(t, out, "dynload/"+sched+"/"+tun+"/GB") }
	lag := func(sched, tun string) float64 { return metric(t, out, "dynload/"+sched+"/"+tun+"/mean-lag") }

	var winner, winSched string
	for _, sc := range []string{"step", "square"} {
		for _, rl := range learned {
			wins := true
			for _, d := range direct {
				if !(gb(sc, rl) > gb(sc, d) && lag(sc, rl) < lag(sc, d)) {
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
		t.Fatalf("no learned strategy strictly beats cd/cs/nm on any dynamic schedule:\n%s", out.Text)
	}
	t.Logf("%s wins on %s\n%s", winner, winSched, out.Text)

	bestDirect := 0.0
	for _, d := range direct {
		bestDirect = max(bestDirect, gb("constant", d))
	}
	if w := gb("constant", winner); w < 0.9*bestDirect {
		t.Fatalf("%s on constant load moved %.3g GB, below 90%% of the best direct search's %.3g GB:\n%s",
			winner, w, bestDirect, out.Text)
	}
}

// checkDynload holds one schedule's share of a dynamic-load outcome to
// the scorer: a trace, a payload and one lag per shift for every tuner,
// their mean as its metric, and a text row per tuner, in dynloadTuners
// order from line first, showing those lags.
func checkDynload(t *testing.T, out *Outcome, sc DynamicSchedule, end float64, first int) {
	t.Helper()
	lines := strings.Split(out.Text, "\n")
	runs := dynloadRuns(t, out, sc.Name)
	lags := shiftLags(runs, sc.Shifts, end)
	for i, name := range dynloadTuners {
		if len(runs[i].Results) == 0 {
			t.Fatalf("(%s, %s): empty trace", sc.Name, name)
		}
		if len(lags[i]) != len(sc.Shifts) {
			t.Fatalf("(%s, %s): %d lags for %d shifts", sc.Name, name, len(lags[i]), len(sc.Shifts))
		}
		if gb := metric(t, out, "dynload/"+sc.Name+"/"+name+"/GB"); gb <= 0 {
			t.Fatalf("(%s, %s): no payload moved", sc.Name, name)
		}
		shown, sum := make([]string, len(lags[i])), 0
		for k, l := range lags[i] {
			shown[k], sum = fmt.Sprint(l), sum+l
		}
		if len(shown) == 0 {
			shown = []string{"-"}
		} else if got, want := metric(t, out, "dynload/"+sc.Name+"/"+name+"/mean-lag"), float64(sum)/float64(len(lags[i])); got != want {
			t.Fatalf("(%s, %s): mean lag %v, want the mean of %v", sc.Name, name, got, lags[i])
		}
		row := lines[first+i]
		if !strings.HasPrefix(row, fmt.Sprintf("%-10s %-10s ", sc.Name, name)) || !strings.HasSuffix(row, "  "+strings.Join(shown, ",")) {
			t.Fatalf("text line %d is %q, want (%s, %s) with lags %v:\n%s", first+i, row, sc.Name, name, lags[i], out.Text)
		}
	}
}

// TestDynamicLoadStudyShape checks the study's plumbing on the pinned
// outcome: schedule-major rows, every tuner on every schedule the study
// runs, per-shift lag vectors, and the shift-free control.
func TestDynamicLoadStudyShape(t *testing.T) {
	out := outcome(t, "dynload")
	rc := study(t, "dynload").Pinned.withDefaults()
	// Pinned, the study leaves out the piecewise schedule.
	var scheds []DynamicSchedule
	for _, sc := range DynamicSchedules(rc.Duration) {
		if sc.Name != "piecewise" {
			scheds = append(scheds, sc)
		}
	}
	if n := len(scheds) * len(dynloadTuners); len(out.Traces) != n {
		t.Fatalf("study holds %d traces, want %d", len(out.Traces), n)
	}
	// A title line and a header line, then one row per cell.
	for si, sc := range scheds {
		checkDynload(t, out, sc, rc.Duration, 2+si*len(dynloadTuners))
	}
}

// TestDynamicLoadStudyPiecewise runs, short and fresh, the schedule the
// pinned study leaves out — the only one with several shifts that mixes
// transfer and compute load — twice: every tuner gets one lag per shift
// and moves payload, the text names the schedule, and equal seeds give
// equal outcomes.
func TestDynamicLoadStudyPiecewise(t *testing.T) {
	var piecewise DynamicSchedule
	for _, sc := range DynamicSchedules(300) {
		if sc.Name == "piecewise" {
			piecewise = sc
		}
	}
	rc := RunConfig{Seed: 5, Duration: 300}.withDefaults()
	var outs [2]*Outcome
	for i := range outs {
		out := &Outcome{Metrics: map[string]float64{}, Traces: map[string]*tuner.Trace{}}
		if err := dynload(rc, []DynamicSchedule{piecewise}, out); err != nil {
			t.Fatal(err)
		}
		if len(out.Traces) != len(dynloadTuners) {
			t.Fatalf("study holds %d traces, want %d", len(out.Traces), len(dynloadTuners))
		}
		checkDynload(t, out, piecewise, rc.Duration, 2)
		outs[i] = out
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("same seed, different studies:\n%s\nvs\n%s", outs[0].Text, outs[1].Text)
	}
}

// TestDynamicLoadStudyDeterministic: equal seeds, equal studies — every
// rl-bandit trace of the pinned study, run again on a fresh fabric,
// is the same trace.
func TestDynamicLoadStudyDeterministic(t *testing.T) {
	out := outcome(t, "dynload")
	rc := study(t, "dynload").Pinned.withDefaults()
	var scheds []DynamicSchedule
	for _, sc := range DynamicSchedules(rc.Duration) {
		if _, ok := out.Traces["dynload/"+sc.Name+"/rl-bandit"]; ok {
			scheds = append(scheds, sc)
		}
	}
	if len(scheds) != 3 {
		t.Fatalf("pinned study runs rl-bandit on %d schedules, want 3", len(scheds))
	}
	err := forEachCell(len(scheds), func(i int) error {
		sc := scheds[i]
		tr, err := runTuned(ANLtoUChicago(), "rl-bandit", sc.Sched, rc, false)
		if err == nil && !reflect.DeepEqual(tr, out.Traces["dynload/"+sc.Name+"/rl-bandit"]) {
			err = fmt.Errorf("rl-bandit on %s: same seed, different trace", sc.Name)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
