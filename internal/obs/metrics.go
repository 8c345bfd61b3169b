// Package obs is the observation plane of the tuning stack: a
// zero-dependency metrics registry (Prometheus text exposition, its one
// view), a structured event stream with a bounded ring buffer and an
// optional JSONL sink, and a live HTTP introspection endpoint serving
// /metrics and /status beside the standard library's /debug/vars and
// /debug/pprof.
//
// Every type in the package is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge, *Histogram, *Recorder, *Observer, or *SessionObs
// are no-ops, so instrumented code never has to guard call sites. The
// instrument hot paths (Counter.Add, Gauge.Set, Histogram.Observe) are
// single atomic operations on pre-allocated memory and perform zero
// heap allocations; TestInstrumentAllocs and the package benchmarks
// pin that contract.
//
// Metric and event semantics — names, units, label sets — are
// documented in OBSERVABILITY.md at the repository root; a test fails
// if a registered metric or emitted event type is missing from it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair attached to a metric series. Keys must
// be valid Prometheus label names ([a-zA-Z_][a-zA-Z0-9_]*); values are
// arbitrary UTF-8 and are escaped on exposition.
type Label struct {
	// Key is the label name.
	Key string
	// Value is the label value.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the instrument types within a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is the registry's view of one instrument: its canonical label
// rendering plus the value-producing instrument itself.
type series struct {
	labels string // canonical `{k="v",...}` rendering, "" when unlabeled
	inst   interface {
		write(w *strings.Builder, name, labels string)
	}
}

// family groups all series registered under one metric name. A family
// has a single kind and help string; registering the same name with a
// different kind panics (it is a programming error, like a duplicate
// flag).
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // keyed by canonical label rendering
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
// A nil *Registry is a valid no-op: instrument constructors return nil
// instruments whose methods do nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical `{k="v",...}` rendering of a
// label set, sorted by key, with Prometheus value escaping. An empty
// set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies Prometheus label-value escaping: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies Prometheus HELP escaping: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// lookup returns the instrument registered under (name, labels),
// creating family and series as needed via mk. Registration is
// idempotent: asking for an existing series returns the existing
// instrument, so packages can re-derive handles freely.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, mk func() interface {
	write(w *strings.Builder, name, labels string)
}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls, inst: mk()}
		f.series[ls] = s
	}
	return s.inst
}

// Counter returns the monotonically increasing counter registered
// under name with the given labels, creating it on first use. Returns
// nil (a no-op instrument) when the registry is nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, func() interface {
		write(w *strings.Builder, name, labels string)
	} {
		return new(Counter)
	}).(*Counter)
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use. Returns nil (a no-op instrument) when the
// registry is nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, func() interface {
		write(w *strings.Builder, name, labels string)
	} {
		return new(Gauge)
	}).(*Gauge)
}

// Histogram returns the histogram registered under name with the given
// cumulative bucket upper bounds (ascending; +Inf is implicit) and
// labels, creating it on first use. Returns nil (a no-op instrument)
// when the registry is nil. Buckets are fixed at first registration;
// later calls for the same series ignore the buckets argument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, func() interface {
		write(w *strings.Builder, name, labels string)
	} {
		return newHistogram(buckets)
	}).(*Histogram)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// within a family sorted by label rendering, one HELP and TYPE line
// per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].inst.write(&b, name, k)
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// Names returns the sorted names of all registered metric families.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil *Counter is a no-op. Add is a single atomic
// add and never allocates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative n is ignored (counters are
// monotonic). No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.Value(), 10))
	b.WriteByte('\n')
}

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is ready to use; a nil *Gauge is a no-op. Set is a
// single atomic store and never allocates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	writeFloat(b, g.Value())
	b.WriteByte('\n')
}

// Histogram counts observations into fixed cumulative buckets. The
// bucket bounds are set at construction; a nil *Histogram is a no-op.
// Observe is a bounds scan plus two atomic adds and never allocates.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	count   atomic.Int64
}

// DefaultLatencyBuckets is a general-purpose set of second-denominated
// bounds spanning 1 ms to ~65 s in powers of four.
var DefaultLatencyBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// DefaultRateBuckets is a bytes/second-denominated set of bounds
// spanning 1 MB/s to ~64 GB/s in powers of four, for throughput-like
// distributions (the kernel's per-stripe delivery-rate estimate).
var DefaultRateBuckets = []float64{1e6, 4e6, 16e6, 64e6, 256e6, 1.024e9, 4.096e9, 16.384e9, 65.536e9}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsInf(b, +1) {
			continue // +Inf bucket is implicit
		}
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one observation. No-op on a nil receiver; NaN is
// ignored.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SumCount returns the running sum and count of observations; zeros on
// a nil receiver.
func (h *Histogram) SumCount() (sum float64, count int64) {
	if h == nil {
		return 0, 0
	}
	return math.Float64frombits(h.sumBits.Load()), h.count.Load()
}

func (h *Histogram) write(b *strings.Builder, name, labels string) {
	// Prometheus histograms expose cumulative bucket counts with an
	// le label merged into the series' own labels.
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(b, name, labels, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.inf.Load()
	writeBucket(b, name, labels, "+Inf", cum)
	sum, count := h.SumCount()
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	writeFloat(b, sum)
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(count, 10))
	b.WriteByte('\n')
}

// writeBucket emits one cumulative `name_bucket{...,le="bound"} n`
// line, splicing le into an existing label rendering when present.
func writeBucket(b *strings.Builder, name, labels, le string, n int64) {
	b.WriteString(name)
	b.WriteString("_bucket")
	if labels == "" {
		b.WriteString(`{le="`)
		b.WriteString(le)
		b.WriteString(`"}`)
	} else {
		b.WriteString(labels[:len(labels)-1]) // strip trailing '}'
		b.WriteString(`,le="`)
		b.WriteString(le)
		b.WriteString(`"}`)
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(n, 10))
	b.WriteByte('\n')
}

// writeFloat renders a float in Prometheus exposition form: shortest
// round-trip decimal, with +Inf/-Inf/NaN spelled out.
func writeFloat(b *strings.Builder, v float64) {
	switch {
	case math.IsInf(v, +1):
		b.WriteString("+Inf")
	case math.IsInf(v, -1):
		b.WriteString("-Inf")
	case math.IsNaN(v):
		b.WriteString("NaN")
	default:
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
}
