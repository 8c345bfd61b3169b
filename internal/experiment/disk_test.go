package experiment

import (
	"strings"
	"testing"
)

func TestDiskScenariosShape(t *testing.T) {
	scs := diskRegimes(1)
	if len(scs) != 3 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		names[sc.name] = true
		if sc.files.Count() == 0 {
			t.Fatalf("scenario %q has no files", sc.name)
		}
	}
	for _, want := range []string{"many-small", "lognormal-mix", "few-huge"} {
		if !names[want] {
			t.Fatalf("missing scenario %q", want)
		}
	}
	// Deterministic per seed.
	again := diskRegimes(1)
	if again[1].files.TotalBytes() != scs[1].files.TotalBytes() {
		t.Fatal("lognormal scenario not deterministic")
	}
}

func TestTuneDiskManySmall(t *testing.T) {
	// The tuner must discover that pipelining and concurrency
	// dominate, beating the static disk default clearly.
	out := outcome(t, "disk")
	def := traceOf(t, out, "disk-many-small/default")
	best := 0.0
	bestPP := 0
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr := traceOf(t, out, "disk-many-small/"+name)
		if v := tr.MeanThroughput(); v > best {
			best = v
			bestPP = tr.FinalX()[2]
		}
	}
	if best < 2*def.MeanThroughput() {
		t.Fatalf("tuned small-file throughput %v not >= 2x default %v", best, def.MeanThroughput())
	}
	if bestPP <= 4 {
		t.Errorf("best tuner's pipelining depth %d did not rise above the default 4", bestPP)
	}
	if FilesMoved(def) <= 0 {
		t.Fatal("default moved no files")
	}
	if !strings.Contains(out.Text, "disk: many-small") {
		t.Fatal("text missing scenario label")
	}
}

func TestTuneDiskFewHuge(t *testing.T) {
	// Pipelining is irrelevant; both default and tuners should move
	// data at a healthy rate, and the transfers complete before the
	// budget.
	out := outcome(t, "disk")
	for _, name := range []string{"default", "cs-tuner", "nm-tuner"} {
		tr := traceOf(t, out, "disk-few-huge/"+name)
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
	out := outcome(t, "joint")
	aggregate := func(mode string) float64 {
		return metric(t, out, "joint/"+mode+"/uchicago/mean-MB/s") + metric(t, out, "joint/"+mode+"/tacc/mean-MB/s")
	}
	ind, joint := aggregate("independent"), aggregate("joint")
	if ind <= 0 || joint <= 0 {
		t.Fatal("no progress in one of the modes")
	}
	// Both bounded by the shared NIC.
	if joint > 5000 || ind > 5000 {
		t.Fatal("aggregate exceeds the NIC")
	}
	// The joint tuner must be at least competitive: not collapse
	// below two thirds of the independent aggregate.
	if joint < 0.66*ind {
		t.Fatalf("joint aggregate %v MB/s far below independent %v MB/s", joint, ind)
	}
	if !strings.Contains(out.Text, "joint:") || !strings.Contains(out.Text, "independent:") {
		t.Fatalf("text incomplete:\n%s", out.Text)
	}
}
