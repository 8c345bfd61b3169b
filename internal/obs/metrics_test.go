package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExposition locks the text exposition format: escaping,
// label ordering, family sorting, and histogram bucket rendering.
func TestPrometheusExposition(t *testing.T) {
	cases := []struct {
		name string
		fill func(r *Registry)
		want string
	}{
		{
			name: "counter basic",
			fill: func(r *Registry) {
				r.Counter("a_total", "Things.").Add(3)
			},
			want: "# HELP a_total Things.\n# TYPE a_total counter\na_total 3\n",
		},
		{
			name: "gauge float formatting",
			fill: func(r *Registry) {
				r.Gauge("g", "A gauge.").Set(1.25e9)
			},
			want: "# HELP g A gauge.\n# TYPE g gauge\ng 1.25e+09\n",
		},
		{
			name: "label ordering is sorted regardless of registration order",
			fill: func(r *Registry) {
				r.Counter("c_total", "C.", L("zeta", "1"), L("alpha", "2")).Inc()
			},
			want: "# HELP c_total C.\n# TYPE c_total counter\n" +
				`c_total{alpha="2",zeta="1"} 1` + "\n",
		},
		{
			name: "series within a family sorted by labels, HELP/TYPE once",
			fill: func(r *Registry) {
				r.Counter("c_total", "C.", L("session", "b")).Add(2)
				r.Counter("c_total", "C.", L("session", "a")).Add(1)
			},
			want: "# HELP c_total C.\n# TYPE c_total counter\n" +
				`c_total{session="a"} 1` + "\n" +
				`c_total{session="b"} 2` + "\n",
		},
		{
			name: "families sorted by name",
			fill: func(r *Registry) {
				r.Counter("z_total", "Z.").Inc()
				r.Gauge("a_gauge", "A.").Set(1)
			},
			want: "# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge 1\n" +
				"# HELP z_total Z.\n# TYPE z_total counter\nz_total 1\n",
		},
		{
			name: "label value escaping",
			fill: func(r *Registry) {
				r.Counter("e_total", "E.", L("p", `back\slash "quote"`+"\nnl")).Inc()
			},
			want: "# HELP e_total E.\n# TYPE e_total counter\n" +
				`e_total{p="back\\slash \"quote\"\nnl"} 1` + "\n",
		},
		{
			name: "help escaping",
			fill: func(r *Registry) {
				r.Gauge("h", "line one\nline \\two").Set(0)
			},
			want: `# HELP h line one\nline \\two` + "\n# TYPE h gauge\nh 0\n",
		},
		{
			name: "histogram cumulative buckets with labels",
			fill: func(r *Registry) {
				h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, L("session", "s"))
				h.Observe(0.05)
				h.Observe(0.5)
				h.Observe(0.7)
				h.Observe(99)
			},
			want: "# HELP lat_seconds Latency.\n# TYPE lat_seconds histogram\n" +
				`lat_seconds_bucket{session="s",le="0.1"} 1` + "\n" +
				`lat_seconds_bucket{session="s",le="1"} 3` + "\n" +
				`lat_seconds_bucket{session="s",le="10"} 3` + "\n" +
				`lat_seconds_bucket{session="s",le="+Inf"} 4` + "\n" +
				`lat_seconds_sum{session="s"} 100.25` + "\n" +
				`lat_seconds_count{session="s"} 4` + "\n",
		},
		{
			name: "histogram without labels",
			fill: func(r *Registry) {
				h := r.Histogram("d_seconds", "D.", []float64{1})
				h.Observe(2)
			},
			want: "# HELP d_seconds D.\n# TYPE d_seconds histogram\n" +
				`d_seconds_bucket{le="1"} 0` + "\n" +
				`d_seconds_bucket{le="+Inf"} 1` + "\n" +
				"d_seconds_sum 2\nd_seconds_count 1\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.fill(r)
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatalf("WritePrometheus: %v", err)
			}
			if got := b.String(); got != tc.want {
				t.Errorf("exposition mismatch\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "X.", L("a", "1"))
	c2 := r.Counter("x_total", "ignored second help", L("a", "1"))
	if c1 != c2 {
		t.Fatal("same (name, labels) must return the same instrument")
	}
	c3 := r.Counter("x_total", "X.", L("a", "2"))
	if c1 == c3 {
		t.Fatal("distinct labels must return distinct instruments")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "conflict")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("n", "nil")
	g := r.Gauge("n2", "nil")
	h := r.Histogram("n3", "nil", []float64{1})
	c.Add(1)
	c.Inc()
	g.Set(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if sum, n := h.SumCount(); sum != 0 || n != 0 {
		t.Fatal("nil histogram must read zero")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}

	var o *Observer
	s := o.Session("x")
	s.Propose(0, []int{1}, nil)
	s.EpochStart(0, 0, []int{1})
	s.EpochEnd(0, 0, []int{1}, EpochStats{}, false, 0)
	s.Observe(0, 0, 0)
	s.Retrigger(0, 0)
	s.CheckpointWritten(0, 1, 0.001)
	s.StripeDialed(0, 1)
	s.StripeEvicted(0, "test")
	s.SetPool(1)
	s.SetStrategy("cs")
	s.Finish(nil)
	if st := s.Status(); st.ID != "" || st.Epochs != 0 || st.Pool != 0 {
		t.Fatal("nil SessionObs must read zero values")
	}
	o.FaultInjected(FaultDialRefusal, "addr")
	o.Event(Event{})
	if o.Registry() != nil || o.Recorder() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
	if got := o.Status(); len(got.Sessions) != 0 {
		t.Fatal("nil observer status must be empty")
	}
	var rec *Recorder
	rec.Record(Event{})
	if rec.Events() != nil || rec.Err() != nil {
		t.Fatal("nil recorder must read zero values")
	}
}

// TestMetricsDoNotGrowWithSessions pins /metrics to the process: after
// 6 400 sessions it publishes exactly the series it published after
// one, no series names a session, and every per-session value that is
// not a /metrics series is read back from /status or from the event
// that carried it. Sessions run on several goroutines, as dstuned's
// do, so under -race it also checks that they share the instruments
// safely.
func TestMetricsDoNotGrowWithSessions(t *testing.T) {
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	// Session "job-i" reports values derived from i.
	job := func(id string) int {
		var i int
		if _, err := fmt.Sscanf(id, "job-%d", &i); err != nil {
			t.Fatalf("session %q: %v", id, err)
		}
		return i
	}
	xOf := func(i int) []int { return []int{i%64 + 1, i%16 + 1, i%8 + 1} }
	// drive runs n sessions through one epoch each and returns the
	// number of series /metrics publishes.
	drive := func(n int) int {
		o := NewObserver(ObserverConfig{EventBuffer: 5 * n})
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					s := o.Session(fmt.Sprintf("job-%d", i))
					s.EpochStart(0, 0, xOf(i))
					s.EpochEnd(1, 0, xOf(i), EpochStats{Throughput: float64(i+1) * 1e6,
						BestCase: float64(i+2) * 1e6, Bytes: 1e6, DeadTime: 0.1, Dials: 1}, false, i%5)
					s.StripeKernel(1, 0, i+10, 0.02, 0.001, 1e8, int64(i))
					s.RLAction(1, 1, xOf(i), i%4, 1/float64(i+2), float64(i)*1e3, i%2 == 0)
					s.CheckpointWritten(1, 1, 0.001)
					s.SetPool(i%32 + 1)
				}
			}(w)
		}
		wg.Wait()
		srv := httptest.NewServer(o.Handler())
		defer srv.Close()

		metrics := get(srv.URL + "/metrics")
		series := 0
		for _, line := range strings.Split(metrics, "\n") {
			if strings.Contains(line, "session=") {
				t.Fatalf("%d sessions: a series names its session: %s", n, line)
			}
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		if !strings.Contains(metrics, fmt.Sprintf("\ndstune_epochs_total %d\n", n)) {
			t.Errorf("%d sessions: dstune_epochs_total does not sum over them", n)
		}

		var st Status
		if err := json.Unmarshal([]byte(get(srv.URL+"/status")), &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Sessions) != n {
			t.Fatalf("/status lists %d sessions, want %d", len(st.Sessions), n)
		}
		for _, ss := range st.Sessions {
			i := job(ss.ID)
			want := SessionStatus{X: xOf(i), Throughput: float64(i+1) * 1e6,
				BestCase: float64(i+2) * 1e6, TransientBudget: i % 5, Pool: i%32 + 1}
			got := SessionStatus{X: ss.X, Throughput: ss.Throughput, BestCase: ss.BestCase,
				TransientBudget: ss.TransientBudget, Pool: ss.Pool}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("/status of %s = %+v, want %+v", ss.ID, got, want)
			}
		}
		kernel, rl := 0, 0
		for _, ev := range o.Recorder().Events() {
			switch ev.Type {
			case EventStripeKernelStats:
				if i := job(ev.Session); ev.Cwnd != i+10 {
					t.Fatalf("%s: StripeKernelStats cwnd %d, want %d", ev.Session, ev.Cwnd, i+10)
				}
				kernel++
			case EventRLAction:
				if i := job(ev.Session); ev.Epsilon != 1/float64(i+2) || ev.QValue != float64(i)*1e3 {
					t.Fatalf("%s: RLAction epsilon %g q %g", ev.Session, ev.Epsilon, ev.QValue)
				}
				rl++
			}
		}
		if kernel != n || rl != n {
			t.Fatalf("recorded %d StripeKernelStats and %d RLAction events, want %d each", kernel, rl, n)
		}
		return series
	}
	one, many := drive(1), drive(6400)
	if one != many {
		t.Errorf("/metrics publishes %d series after one session and %d after 6400", one, many)
	}
}

// TestInstrumentAllocs pins the zero-allocation contract on the
// instrument hot paths and on the full no-op (nil) instrumentation
// chain, protecting BenchmarkPump's 0 allocs/op.
func TestInstrumentAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "A.")
	g := r.Gauge("g", "G.")
	h := r.Histogram("h_seconds", "H.", DefaultLatencyBuckets)
	var nilSess *SessionObs
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter add", func() { c.Add(1) }},
		{"gauge set", func() { g.Set(3.14) }},
		{"histogram observe", func() { h.Observe(0.25) }},
		{"nil session epoch end", func() {
			nilSess.EpochEnd(0, 0, nil, EpochStats{}, false, 0)
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "B.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "B.", DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.05)
	}
}

func BenchmarkNilSessionEpochEnd(b *testing.B) {
	var s *SessionObs
	st := EpochStats{Throughput: 1e9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.EpochEnd(0, i, nil, st, false, 3)
	}
}
