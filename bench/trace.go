package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// Span names. Each is one layer boundary the benchmark can reach from
// outside the program: a timed call into a public function, or a
// decorator around an interface the public API already accepts.
const (
	spanJob        = "job"                 // POST sent -> terminal state observed (HTTP client side)
	spanSubmit     = "service.submit"      // POST sent -> 201 received
	spanFirstEpoch = "service.first_epoch" // 201 -> first poll that shows a settled epoch
	spanStep       = "tuner.step"          // SessionRuntime.Step
	spanPropose    = "strategy.propose"    // Strategy.Propose
	spanObserve    = "strategy.observe"    // Strategy.Observe
	spanSnapshot   = "strategy.snapshot"   // Strategy.Snapshot (taken for the checkpoint)
	spanRun        = "xfer.run"            // Transferer.Run
	spanSave       = "checkpoint.save"     // CheckpointWriter.Save
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer was created; Parent is the index of the
// span that caused this one (-1 for a root) and Job groups the spans of
// one job or session.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	// Mark is set on intervals that are observed by polling and so
	// overlap their siblings (service.first_epoch): they are kept in
	// the trace file but left out of self-time accounting.
	Mark bool `json:"mark,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that costs one comparison.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer returns an empty tracer whose clock starts now.
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its index.
func (t *tracer) add(name, job string, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// open reserves a span whose end is not known yet (a parent that must
// exist before its children) and returns its index.
func (t *tracer) open(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, job, parent, t.now(), -1)
}

// close sets the end of a span reserved by open.
func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// mark flags span i as a polled interval (see span.Mark).
func (t *tracer) mark(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Mark = true
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, "nanoseconds since the traced pass began", t.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes is the outcome of splitting a set of spans by layer.
type selfTimes struct {
	// Self is each span name's total self time in nanoseconds: its
	// duration minus the part of it its children cover.
	Self map[string]int64
	// Count is the number of spans per name.
	Count map[string]int
	// Root is the summed duration of the root spans.
	Root int64
	// Escaped counts children that start before or end after their
	// parent by more than a microsecond.
	Escaped int
}

// sum returns the total self time over all names.
func (s selfTimes) sum() int64 {
	var n int64
	for _, v := range s.Self {
		n += v
	}
	return n
}

// splitSelf computes every span's self time: its duration minus the
// union of its children's intervals, clipped to the parent. Marks and
// unfinished spans are skipped. When children are properly nested and
// siblings do not overlap, the self times of a tree sum to its root's
// duration; the caller checks that they do.
func splitSelf(spans []span) selfTimes {
	out := selfTimes{Self: map[string]int64{}, Count: map[string]int{}}
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Mark || s.End < s.Start {
			continue
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		} else {
			out.Root += s.End - s.Start
		}
	}
	for i, s := range spans {
		if s.Mark || s.End < s.Start {
			continue
		}
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		var covered int64
		edge := s.Start
		for _, c := range cs {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start-1000 || hi > s.End+1000 {
				out.Escaped++
			}
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out.Self[s.Name] += (s.End - s.Start) - covered
		out.Count[s.Name]++
	}
	return out
}

// durationsMS returns the durations of the spans called name, in
// milliseconds, in recording order.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// tracedStrategy decorates a tuner.Strategy: every Propose, Observe and
// Snapshot becomes a span under the current tuner.step.
type tracedStrategy struct {
	tuner.Strategy
	tr   *tracer
	job  string
	step *int
}

// Propose implements tuner.Strategy.
func (s *tracedStrategy) Propose() ([]int, bool) {
	t0 := s.tr.now()
	x, done := s.Strategy.Propose()
	s.tr.add(spanPropose, s.job, *s.step, t0, s.tr.now())
	return x, done
}

// Observe implements tuner.Strategy.
func (s *tracedStrategy) Observe(rep xfer.Report) {
	t0 := s.tr.now()
	s.Strategy.Observe(rep)
	s.tr.add(spanObserve, s.job, *s.step, t0, s.tr.now())
}

// Snapshot implements tuner.Strategy.
func (s *tracedStrategy) Snapshot() (json.RawMessage, error) {
	t0 := s.tr.now()
	raw, err := s.Strategy.Snapshot()
	s.tr.add(spanSnapshot, s.job, *s.step, t0, s.tr.now())
	return raw, err
}

// tracedTransfer decorates an xfer.Transferer: every Run becomes an
// xfer.run span and its report is kept for the per-layer metrics. It
// forwards xfer.Snapshotter so checkpoints still carry the transfer's
// durable state (token, receiver-confirmed bytes, clock).
type tracedTransfer struct {
	xfer.Transferer
	tr   *tracer
	job  string
	step *int // parent span of the next Run; nil = root (-1)

	// reports and walls (seconds) record every Run, for whoever reads
	// them once the session has ended; Run is never concurrent with
	// itself.
	reports []xfer.Report
	walls   []float64
}

// Run implements xfer.Transferer.
func (t *tracedTransfer) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	parent := -1
	if t.step != nil {
		parent = *t.step
	}
	t0 := t.tr.now()
	rep, err := t.Transferer.Run(ctx, p, epoch)
	t1 := t.tr.now()
	t.tr.add(spanRun, t.job, parent, t0, t1)
	t.reports = append(t.reports, rep)
	t.walls = append(t.walls, float64(t1-t0)/1e9)
	return rep, err
}

// Snapshot implements xfer.Snapshotter by forwarding, with the same
// fallback xfer.CaptureState applies to transfers that have none.
func (t *tracedTransfer) Snapshot() xfer.TransferState { return xfer.CaptureState(t.Transferer) }

// tracedCheckpoint decorates a tuner.CheckpointWriter: every Save
// becomes a checkpoint.save span, and the size of the file it leaves is
// added up (the bytes a session writes over its life).
type tracedCheckpoint struct {
	inner *tuner.FileCheckpoint
	tr    *tracer
	job   string
	step  *int

	saveMS []float64
	bytes  int64
}

// Save implements tuner.CheckpointWriter.
func (c *tracedCheckpoint) Save(ck *tuner.Checkpoint) error {
	t0 := c.tr.now()
	err := c.inner.Save(ck)
	t1 := c.tr.now()
	c.tr.add(spanSave, c.job, *c.step, t0, t1)
	c.saveMS = append(c.saveMS, float64(t1-t0)/1e6)
	if err != nil {
		return err
	}
	fi, err := os.Stat(c.inner.Path())
	if err != nil {
		return fmt.Errorf("bench: checkpoint size: %w", err)
	}
	c.bytes += fi.Size()
	return nil
}
