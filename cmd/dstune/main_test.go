package main

import (
	"context"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dstune"
	"dstune/internal/service"
)

// parseFlags parses one flag line through the CLI's own binding.
func parseFlags(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("dstune", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o
}

// runFlags runs the session a flag line describes to its end.
func runFlags(t *testing.T, hist *dstune.HistoryStore, args ...string) (*service.Session, *dstune.Trace) {
	t.Helper()
	sess, err := parseFlags(t, args...).session(nil, hist)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	trace, err := runSession(context.Background(), sess)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return sess, trace
}

func TestSessionUnknownTestbed(t *testing.T) {
	if _, err := parseFlags(t, "-testbed", "mars", "-tuner", "default").session(nil, nil); err == nil {
		t.Fatal("unknown testbed accepted")
	}
	if _, err := parseFlags(t, "-mode", "disk").session(nil, nil); err == nil {
		t.Fatal("the removed disk mode accepted")
	}
}

// TestResumeRefusesRetiredStrategy: -resume of a checkpoint written by
// a build that still named store-backed runs "warm:<tuner>" (the
// fixture is one, from the parent commit) is refused by that name
// before anything is dialled — as is the name itself at -tuner, the old
// `static` alias, the deleted tabular Q-learner `rl-q`, and the
// withdrawn `two-phase` and `kernel-aware:` prefix. The head of
// a version-3 head-and-log pair is refused by its version. The -tuner
// usage lists the registry's rows and nothing else.
func TestResumeRefusesRetiredStrategy(t *testing.T) {
	fs := flag.NewFlagSet("dstune", flag.ContinueOnError)
	bindFlags(fs)
	if got, want := fs.Lookup("tuner").Usage, "default, cd-tuner, cs-tuner, nm-tuner, heur1, heur2, model, rl-bandit"; got != want {
		t.Fatalf("-tuner usage %q, want %q", got, want)
	}
	_, err := parseFlags(t, "-mode", "socket", "-resume", "../../internal/tuner/testdata/parent_warm.checkpoint").session(nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"warm:cs-tuner"`) {
		t.Fatalf("resume of a warm: checkpoint returned %v, want a refusal naming it", err)
	}
	_, err = parseFlags(t, "-mode", "socket", "-resume", "../../internal/tuner/testdata/v3.checkpoint").session(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "has version 3, this build reads 4") {
		t.Fatalf("resume of a version-3 checkpoint returned %v, want a refusal naming its version", err)
	}
	for _, name := range []string{"warm:cs-tuner", "static", "rl-q", "two-phase", "kernel-aware:cs-tuner"} {
		if _, err := parseFlags(t, "-tuner", name).session(nil, nil); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("-tuner %s returned %v, want a refusal naming it", name, err)
		}
	}
}

// TestSessionSimDataset: -dataset in sim mode is the disk-to-disk
// model, bounded by the dataset — it used to be ignored for an
// unbounded stream.
func TestSessionSimDataset(t *testing.T) {
	sess, trace := runFlags(t, nil, "-dataset", "4x1MiB", "-duration", "600")
	if sess.Dataset.Count() != 4 {
		t.Fatalf("session dataset holds %d files, want 4", sess.Dataset.Count())
	}
	moved := 0.0
	for _, r := range trace.Results {
		moved += r.Report.Bytes
	}
	if moved != 4<<20 || !trace.Results[len(trace.Results)-1].Report.Done {
		t.Fatalf("moved %v bytes in %d epochs, want the dataset's 4 MiB and done", moved, len(trace.Results))
	}
}

// TestSessionBytesBoundSim: -bytes bounds a simulated CLI run exactly
// as it bounds a simulated daemon job.
func TestSessionBytesBoundSim(t *testing.T) {
	_, trace := runFlags(t, nil, "-tuner", "default", "-bytes", "1e11", "-duration", "1800")
	moved := 0.0
	for _, r := range trace.Results {
		moved += r.Report.Bytes
	}
	last := trace.Results[len(trace.Results)-1].Report
	if math.Abs(moved-1e11) > 1 || !last.Done || last.End >= 1800 {
		t.Fatalf("moved %v bytes by t=%v (done=%v), want 1e11 well inside the budget", moved, last.End, last.Done)
	}
}

// TestSessionStepSchedule: -step-at's schedule is the load the run
// sees — the constant tfr/cmp load Build puts on the fabric for the
// same spec must not outlive it.
func TestSessionStepSchedule(t *testing.T) {
	_, step := runFlags(t, nil, "-tuner", "default", "-testbed", "tacc", "-cmp", "16", "-step-at", "60", "-duration", "120")
	_, flat := runFlags(t, nil, "-tuner", "default", "-testbed", "tacc", "-cmp", "16", "-duration", "120")
	if len(step.Results) != 4 || len(flat.Results) != 4 {
		t.Fatalf("ran %d and %d epochs, want 4 each", len(step.Results), len(flat.Results))
	}
	if step.Results[1].Report.Throughput != flat.Results[1].Report.Throughput {
		t.Fatalf("before the step the loaded runs differ: %v vs %v",
			step.Results[1].Report.Throughput, flat.Results[1].Report.Throughput)
	}
	if step.Results[3].Report.Throughput <= 1.2*flat.Results[3].Report.Throughput {
		t.Fatalf("load lifted at t=60 but throughput stayed %v (loaded: %v)",
			step.Results[3].Report.Throughput, flat.Results[3].Report.Throughput)
	}
}

// TestHostileNumbersAreErrors: a flag line and a fleet file go through
// the validation POST /jobs applies; a hostile number is an error that
// names its field at every door, never a panic.
func TestHostileNumbersAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-max-nc", "-5"}, "max_nc"},
		{[]string{"-np", "-1"}, "np"},
		{[]string{"-epoch", "NaN"}, "epoch"},
		{[]string{"-dataset", "9999999999x1"}, "dataset"},
		{[]string{"-pp", "4"}, "pp"},
		{[]string{"-duration", "0"}, "budget"},
		{[]string{"-step-at", "10", "-tfr2", "-5"}, "-tfr2"},
	} {
		_, err := parseFlags(t, tc.args...).session(nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v does not name %q", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct{ file, want string }{
		{`{"budget": 60, "sessions": [{"max_nc": -5}]}`, "max_nc"},
		{`{"budget": 60, "sessions": [{"tunr": "cs-tuner"}]}`, "tunr"},
		{`{"budgt": 60, "sessions": [{}]}`, "budgt"},
		{`{"sessions": [{"tuner": "cs-tuner"}]}`, "budget"},
		{`{"budget": 60, "sessions": [{"epoch": 5}]}`, "epoch"},
		{`{"budget": 60, "sessions": [{}, {"addr": "127.0.0.1:1"}]}`, "mixes"},
		{`{"budget": 60, "sessions": []}`, "no sessions"},
	} {
		path := filepath.Join(t.TempDir(), "fleet.json")
		if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := buildFleet(path, nil, "", nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not name %q", tc.file, err, tc.want)
		}
	}
	// The file's budget reaches a session that names none.
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(`{"budget": 60, "sessions": [{"tuner": "cs-tuner"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildFleet(path, nil, "", nil); err != nil {
		t.Fatalf("session inheriting the file's budget rejected: %v", err)
	}
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

// readmeFlagRow matches one row of the README's flag table: the flag's
// name and the tools it belongs to.
var readmeFlagRow = regexp.MustCompile("^\\| `-([a-z0-9-]+)[^`]*` \\| ([a-z, ]+) \\|")

// TestUsageStringsConsistent: what the CLI documents is what it does.
// Every tuner -tuner's usage lists is one the spec accepts, and the
// README's flag table and the registered flags are the same set — a
// removed flag cannot linger in the docs, a new one cannot go
// undocumented.
func TestUsageStringsConsistent(t *testing.T) {
	fs := flag.NewFlagSet("dstune", flag.ContinueOnError)
	bindFlags(fs)
	for _, name := range strings.Split(fs.Lookup("tuner").Usage, ", ") {
		name = strings.Replace(name, "<tuner>", "cs-tuner", 1)
		if err := (service.JobSpec{Tuner: name, Budget: 1}).Validate(); err != nil {
			t.Errorf("documented tuner %q rejected: %v", name, err)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		m := readmeFlagRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, tool := range strings.Split(m[2], ", ") {
			if tool == "dstune" {
				documented[m[1]] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no dstune rows in the README's flag table")
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("flag -%s has no row in the README's flag table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("the README documents -%s, which dstune does not register", name)
	}
}
