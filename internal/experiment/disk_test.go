package experiment

import (
	"strings"
	"testing"
)

func TestDiskScenariosShape(t *testing.T) {
	scs := DiskScenarios(1)
	if len(scs) != 3 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		names[sc.Name] = true
		if sc.Files.Count() == 0 || sc.DiskRate <= 0 || sc.FileOverhead <= 0 {
			t.Fatalf("scenario %q incomplete: %+v", sc.Name, sc)
		}
	}
	for _, want := range []string{"many-small", "lognormal-mix", "few-huge"} {
		if !names[want] {
			t.Fatalf("missing scenario %q", want)
		}
	}
	// Deterministic per seed.
	again := DiskScenarios(1)
	if again[1].Files.TotalBytes() != scs[1].Files.TotalBytes() {
		t.Fatal("lognormal scenario not deterministic")
	}
}

func TestTuneDiskManySmall(t *testing.T) {
	// The tuner must discover that pipelining and concurrency
	// dominate, beating the static disk default clearly.
	res := raw[[]*TuningResult](t, "disk")[0]
	def := res.Traces["default"].MeanThroughput()
	best := 0.0
	bestPP := 0
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr := res.Traces[name]
		if v := tr.MeanThroughput(); v > best {
			best = v
			bestPP = tr.FinalX()[2]
		}
	}
	if best < 2*def {
		t.Fatalf("tuned small-file throughput %v not >= 2x default %v", best, def)
	}
	if bestPP <= 4 {
		t.Errorf("best tuner's pipelining depth %d did not rise above the default 4", bestPP)
	}
	if FilesMoved(res.Traces["default"]) <= 0 {
		t.Fatal("default moved no files")
	}
	if !strings.Contains(res.Render(), "disk: many-small") {
		t.Fatal("Render missing scenario label")
	}
}

func TestTuneDiskFewHuge(t *testing.T) {
	// Pipelining is irrelevant; both default and tuners should move
	// data at a healthy rate, and the transfers complete before the
	// budget.
	res := raw[[]*TuningResult](t, "disk")[1]
	for name, tr := range res.Traces {
		if FilesMoved(tr) != 8 {
			t.Errorf("%s moved %d files, want all 8", name, FilesMoved(tr))
		}
		last := tr.Results[len(tr.Results)-1]
		if !last.Report.Done {
			t.Errorf("%s did not finish within budget", name)
		}
	}
}

func TestJointVsIndependent(t *testing.T) {
	jc := raw[*JointComparison](t, "joint")
	if jc.IndependentAggregate() <= 0 || jc.JointAggregate() <= 0 {
		t.Fatal("no progress in one of the modes")
	}
	// Both bounded by the shared NIC.
	if jc.JointAggregate() > 5e9 || jc.IndependentAggregate() > 5e9 {
		t.Fatal("aggregate exceeds the NIC")
	}
	// The joint tuner must be at least competitive: not collapse
	// below two thirds of the independent aggregate.
	if jc.JointAggregate() < 0.66*jc.IndependentAggregate() {
		t.Fatalf("joint aggregate %v far below independent %v",
			jc.JointAggregate(), jc.IndependentAggregate())
	}
	out := jc.Render()
	if !strings.Contains(out, "joint:") || !strings.Contains(out, "independent:") {
		t.Fatalf("Render incomplete:\n%s", out)
	}
}
