package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRecorderRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	r := NewRecorder(4, &sink)
	for i := 0; i < 6; i++ {
		r.Record(Event{Type: EventEpochStart, Epoch: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.Seq != want {
			t.Errorf("event %d: seq %d, want %d (oldest-first after wrap)", i, ev.Seq, want)
		}
	}
	if r.Len() != 6 {
		t.Errorf("Len %d, want 6", r.Len())
	}
	// The JSONL sink keeps everything, one object per line.
	sc := bufio.NewScanner(&sink)
	var n int
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Seq != int64(n) || ev.Epoch != n {
			t.Errorf("line %d: seq=%d epoch=%d", n, ev.Seq, ev.Epoch)
		}
		n++
	}
	if n != 6 {
		t.Errorf("sink has %d lines, want 6", n)
	}
	if r.Err() != nil {
		t.Errorf("sink error: %v", r.Err())
	}
}

// TestRecorderRingGrowsByBlocks pins the ring's shape across block
// boundaries: blocks appear only as events reach them, never more than
// the capacity's worth (the last one is short when the capacity is not
// a multiple of the block), and Events stays oldest-first at every
// fill level — below a block, across blocks, full, and wrapped to a
// point inside a block.
func TestRecorderRingGrowsByBlocks(t *testing.T) {
	const size = 2*eventBlock + 100
	r := NewRecorder(size, nil)
	check := func(recorded int) {
		t.Helper()
		evs := r.Events()
		if want := min(recorded, size); len(evs) != want {
			t.Fatalf("after %d events the ring holds %d, want %d", recorded, len(evs), want)
		}
		for i, ev := range evs {
			if want := int64(recorded - len(evs) + i); ev.Seq != want {
				t.Fatalf("after %d events: event %d has seq %d, want %d", recorded, i, ev.Seq, want)
			}
		}
		held := 0
		for _, b := range r.blocks {
			held += len(b)
		}
		want := min((min(recorded, size)+eventBlock-1)/eventBlock*eventBlock, size)
		if held != want {
			t.Fatalf("after %d events the ring has allocated %d slots, want %d", recorded, held, want)
		}
	}
	n := 0
	for _, upTo := range []int{0, 1, eventBlock, eventBlock + 1, size - 1, size, size + 1, size + eventBlock + 7, 3*size + 5} {
		for ; n < upTo; n++ {
			r.Record(Event{Type: EventEpochStart})
		}
		check(n)
	}
}

func TestEventJSONOmitsUnusedFields(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, T: 2.5, Type: EventObserve, Session: "s", Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, forbidden := range []string{"throughput", "dials", "prev", "detail", "transient"} {
		if strings.Contains(got, forbidden) {
			t.Errorf("encoding contains unused field %q: %s", forbidden, got)
		}
	}
}

func TestSessionStatusAndStatusEndpoint(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	s := o.Session("bulk")
	s.SetStrategy("cs-tuner")
	s.Propose(0, []int{4, 8}, nil)
	s.EpochStart(0, 0, []int{4, 8})
	s.EpochEnd(5, 0, []int{4, 8}, EpochStats{
		Throughput: 2e9, BestCase: 2.5e9, Bytes: 1e10, DeadTime: 0.5,
		Dials: 4, ReusedStreams: 0, Retries: 1, DegradedStreams: 2,
	}, false, 3)
	s.Retrigger(5, 0.42)
	s.CheckpointWritten(5, 1, 0.002)
	s.Finish(nil)

	st := o.Status()
	if len(st.Sessions) != 1 {
		t.Fatalf("status has %d sessions, want 1", len(st.Sessions))
	}
	got := st.Sessions[0]
	if got.ID != "bulk" || got.Strategy != "cs-tuner" || got.Epochs != 1 ||
		got.Throughput != 2e9 || got.Dials != 4 || got.Retriggers != 1 ||
		got.Checkpoints != 1 || got.TransientBudget != 3 || !got.Done {
		t.Errorf("unexpected status: %+v", got)
	}
	if len(got.X) != 2 || got.X[0] != 4 || got.X[1] != 8 {
		t.Errorf("status X = %v, want [4 8]", got.X)
	}

	// The process-wide instruments must count the same epoch.
	if v := o.Registry().Counter(MetricEpochs, "").Value(); v != 1 {
		t.Errorf("epochs counter = %d, want 1", v)
	}

	// And the HTTP endpoints must serve them.
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":    "\ndstune_epochs_total 1\n",
		"/status":     `"id": "bulk"`,
		"/debug/vars": `"memstats"`, // the standard library's own; the registry's one view is /metrics
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			t.Errorf("GET %s: body missing %q:\n%s", path, want, body.String())
		}
	}
	// pprof index must be wired.
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
}

func TestObserverSessionIdempotent(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	a := o.Session("x")
	b := o.Session("x")
	if a != b {
		t.Fatal("Session must be idempotent per ID")
	}
	o.Session("y")
	st := o.Status()
	if len(st.Sessions) != 2 || st.Sessions[0].ID != "x" || st.Sessions[1].ID != "y" {
		t.Fatalf("sessions out of order: %+v", st.Sessions)
	}
}

func TestFaultInjectedMetric(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.FaultInjected(FaultReset, "10.0.0.1:2811")
	o.FaultInjected(FaultDialRefusal, "10.0.0.1:2811")
	o.FaultInjected(FaultReset, "10.0.0.1:2811")
	if v := o.Registry().Counter(MetricFaults, "", L("kind", string(FaultReset))).Value(); v != 2 {
		t.Errorf("reset faults = %d, want 2", v)
	}
	evs := o.Recorder().Events()
	if len(evs) != 3 || evs[0].Type != EventFaultInjected {
		t.Fatalf("unexpected events: %+v", evs)
	}
}
