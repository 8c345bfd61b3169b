package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObservabilityDocCoverage pins the documentation contract: every
// metric family an Observer can register and every event type the
// Recorder can emit must appear by name in OBSERVABILITY.md. A new
// instrument without documentation fails here before it ships.
func TestObservabilityDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	// Materialize every instrument: a full session lifecycle, server
	// metrics, and a fault, so Registry().Names() lists the complete
	// family set.
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

	for _, name := range o.Registry().Names() {
		if !strings.Contains(text, name) {
			t.Errorf("metric %q is not documented in OBSERVABILITY.md", name)
		}
	}
	for _, et := range EventTypes() {
		if !strings.Contains(text, string(et)) {
			t.Errorf("event type %q is not documented in OBSERVABILITY.md", et)
		}
	}
}
