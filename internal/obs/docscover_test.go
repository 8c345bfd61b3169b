package obs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestObservabilityDocCoverage pins the documentation contract: every
// metric family an Observer can register (a TYPE line of its
// exposition) and every event type the Recorder can emit (an EventType
// constant in events.go, read from the source) must appear by name in
// OBSERVABILITY.md. A new instrument without documentation fails here
// before it ships.
func TestObservabilityDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	// Materialize every instrument: a full session lifecycle, server
	// metrics, and a fault, so the registry's exposition carries the
	// complete family set.
	o := NewObserver(ObserverConfig{})
	s := o.Session("doc")
	s.SetStrategy("cs-tuner")
	s.Propose(0, []int{2}, nil)
	s.EpochStart(0, 0, []int{2})
	s.EpochEnd(5, 0, []int{2}, EpochStats{Throughput: 1, Bytes: 5}, false, 2)
	s.Observe(5, 0, 0)
	s.Retrigger(5, 0.1)
	s.CheckpointWritten(5, 1, 0.001)
	s.StripeDialed(5, 1)
	s.StripeEvicted(5, "x")
	s.WarmStart(0, []int{14}, true)
	s.WarmStart(0, nil, false)
	s.RLAction(6, 1, []int{14}, 3, 0.2, 1.5e9, true)
	s.RLAction(7, 2, []int{14}, 3, 0.18, 1.5e9, false)
	s.HistoryRecorded()
	o.ServerMetrics().Conn()
	o.ServerMetrics().AddBytes(1)
	o.ServerMetrics().SetTokens(1)
	o.ServerMetrics().Expired(1)
	o.FaultInjected(FaultReset, "x")
	d := o.Daemon()
	d.Submitted()
	d.Rejected("queue-full")
	d.JobAdmitted("job-1", "tenant-a")
	d.JobAdopted("job-1", 3)
	d.JobEvicted("job-1", "fault-budget")
	d.JobDone(nil, false)
	d.SetQueueDepth(1)
	d.SetActive(1)
	d.StepObserved(0.01)
	d.SetTenantActive("tenant-a", 1)
	d.TenantFaults("tenant-a", 1)

	var prom strings.Builder
	if err := o.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, _, _ := strings.Cut(rest, " "); !strings.Contains(text, name) {
				t.Errorf("metric %q is not documented in OBSERVABILITY.md", name)
			}
		}
	}
	types, err := eventTypes("events.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatal("events.go declares no EventType constants")
	}
	for _, et := range types {
		if !strings.Contains(text, et) {
			t.Errorf("event type %q is not documented in OBSERVABILITY.md", et)
		}
	}
}

// eventTypes returns the value of every EventType constant the file
// declares.
func eventTypes(file string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var types []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "EventType" {
				continue
			}
			for _, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return nil, fmt.Errorf("%s: an EventType constant that is not a string literal", file)
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					return nil, err
				}
				types = append(types, s)
			}
		}
	}
	return types, nil
}
