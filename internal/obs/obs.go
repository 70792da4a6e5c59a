// Package obs is a stdlib-only metrics layer for the serving stack: atomic
// counters, gauges, and fixed-bucket histograms with allocation-free
// hot-path recording, collected in a Registry that encodes itself in the
// Prometheus text exposition format (version 0.0.4).
//
// Design constraints, in order:
//
//  1. Recording must be safe for concurrent use and must not allocate —
//     Counter.Inc, Gauge.Set/Add, IntGauge.Add, and Histogram.Observe are
//     single atomic operations (plus a branchless bucket search for
//     histograms) so they can sit on the PI.Interval hot path without
//     disturbing the zero-allocation guarantees established in PR 1.
//  2. Metric creation is GetOrCreate: asking the registry for the same
//     (family, labels) pair returns the same instance, so packages can
//     resolve their metrics once at construction time and share them freely.
//  3. No dependencies: the encoder is ~100 lines of strconv, not a client
//     library.
//
// Label sets are fixed at creation time (constant labels in Prometheus
// terms). There is deliberately no dynamic-label API — formatting label
// values per observation would allocate on the hot path; callers that need
// per-method series create one instrument per method instead.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to a metric at creation.
type Label struct {
	// Key is the Prometheus label name (must match [a-zA-Z_][a-zA-Z0-9_]*).
	Key string
	// Value is the label value; it is escaped when encoded.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// desc identifies one time series: a metric family plus its rendered
// constant-label block (`{k="v",...}` or "" when unlabeled).
type desc struct {
	family string
	help   string
	labels string // pre-rendered, including braces, or ""
}

// metric is the internal interface every instrument implements; write
// appends the sample line(s) for the series (without HELP/TYPE headers).
type metric interface {
	desc() desc
	typeName() string
	write(b []byte) []byte
}

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use; Inc and Add are single atomic adds and never allocate.
type Counter struct {
	v atomic.Uint64
	d desc
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) desc() desc       { return c.d }
func (c *Counter) typeName() string { return "counter" }
func (c *Counter) write(b []byte) []byte {
	b = append(b, c.d.family...)
	b = append(b, c.d.labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, c.v.Load(), 10)
	return append(b, '\n')
}

// Gauge is a float64 value that can go up and down. All methods are safe
// for concurrent use; Set is one atomic store, Add is a CAS loop, and
// neither allocates.
type Gauge struct {
	bits atomic.Uint64
	d    desc
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) desc() desc       { return g.d }
func (g *Gauge) typeName() string { return "gauge" }
func (g *Gauge) write(b []byte) []byte {
	b = append(b, g.d.family...)
	b = append(b, g.d.labels...)
	b = append(b, ' ')
	b = appendFloat(b, g.Value())
	return append(b, '\n')
}

// IntGauge is an integer gauge backed by a single atomic — cheaper than
// Gauge's CAS loop when the value is a count (queue depth, in-flight
// tasks). All methods are safe for concurrent use and never allocate.
type IntGauge struct {
	v atomic.Int64
	d desc
}

// Set replaces the gauge value.
func (g *IntGauge) Set(v int64) { g.v.Store(v) }

// Add increments the gauge by delta (negative to decrement).
func (g *IntGauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *IntGauge) Value() int64 { return g.v.Load() }

func (g *IntGauge) desc() desc       { return g.d }
func (g *IntGauge) typeName() string { return "gauge" }
func (g *IntGauge) write(b []byte) []byte {
	b = append(b, g.d.family...)
	b = append(b, g.d.labels...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, g.v.Load(), 10)
	return append(b, '\n')
}

// GaugeFunc is a gauge whose value is computed by a callback at scrape
// time — the natural shape for state that already lives elsewhere
// (calibration-set size, martingale statistic). The callback must be safe
// to invoke from the scrape goroutine; it runs outside the registry lock's
// critical path but may run concurrently with recorders.
type GaugeFunc struct {
	fn atomic.Value // holds a func() float64; swapped on re-registration
	d  desc
}

func (g *GaugeFunc) desc() desc       { return g.d }
func (g *GaugeFunc) typeName() string { return "gauge" }
func (g *GaugeFunc) write(b []byte) []byte {
	b = append(b, g.d.family...)
	b = append(b, g.d.labels...)
	b = append(b, ' ')
	b = appendFloat(b, g.fn.Load().(func() float64)())
	return append(b, '\n')
}

// Histogram is a fixed-bucket histogram. Observe is safe for concurrent
// use and allocation-free: a linear scan over the (small, sorted) bound
// slice picks the bucket, then one atomic add on the bucket and a CAS add
// on the sum. Buckets are fixed at creation; there is no resizing.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	d       desc
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns an estimate of the q-quantile (q in [0,1]) from the
// bucket counts: the upper bound of the bucket containing the q-th
// observation (the last finite bound for the +Inf bucket). It is a scrape/
// debug convenience, not a recording-path method.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // +Inf bucket: report last finite bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) desc() desc       { return h.d }
func (h *Histogram) typeName() string { return "histogram" }
func (h *Histogram) write(b []byte) []byte {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b = appendSeries(b, h.d.family+"_bucket", h.d.labels, "le", formatFloat(bound))
		b = append(b, ' ')
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b = appendSeries(b, h.d.family+"_bucket", h.d.labels, "le", "+Inf")
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')

	b = append(b, h.d.family...)
	b = append(b, "_sum"...)
	b = append(b, h.d.labels...)
	b = append(b, ' ')
	b = appendFloat(b, h.Sum())
	b = append(b, '\n')

	b = append(b, h.d.family...)
	b = append(b, "_count"...)
	b = append(b, h.d.labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}

// LatencyBuckets are the default histogram bounds for per-call latencies,
// in seconds: 1µs to 2.5s, roughly ×2.5 per step — wide enough to span a
// split-conformal addition (~100ns rounds to the first bucket) and a
// K-fold CV+ evaluation of neural fold models (~ms–s).
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5,
}

// WidthBuckets are the default histogram bounds for interval widths in
// normalised selectivity units [0, 1], log-spaced to resolve both the
// tight-interval regime (1e-5) and the trivial [0,1] interval.
var WidthBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// Registry holds a set of metrics and encodes them in the Prometheus text
// format. All methods are safe for concurrent use. Creation methods have
// GetOrCreate semantics: the same (family, labels) pair always returns the
// same instance, and panics if it was previously created as a different
// metric type or with different bounds (a programming error, like a
// duplicate flag registration).
//
// A nil *Registry is valid and is the one answer to "where do metrics go
// when no registry is given": its creation methods hand out working
// instruments that record normally but are never exported (each call
// returns a fresh instance), and it renders nothing.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]metric
	ordered []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

// renderLabels formats a label set as `{k="v",...}` with keys in the given
// order, or "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the existing metric for key, or registers the one built
// by mk. The registered metric's concrete type must match want.
func (r *Registry) lookup(key, want string, mk func() metric) metric {
	if r == nil {
		return mk()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.typeName() != want {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", key, m.typeName(), want))
		}
		return m
	}
	m := mk()
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter for (family, labels), creating it on first
// use. help is recorded on first creation only.
func (r *Registry) Counter(family, help string, labels ...Label) *Counter {
	lb := renderLabels(labels)
	m := r.lookup(family+lb, "counter", func() metric {
		return &Counter{d: desc{family: family, help: help, labels: lb}}
	})
	return m.(*Counter)
}

// Gauge returns the float gauge for (family, labels), creating it on first
// use.
func (r *Registry) Gauge(family, help string, labels ...Label) *Gauge {
	lb := renderLabels(labels)
	m := r.lookup(family+lb, "gauge", func() metric {
		return &Gauge{d: desc{family: family, help: help, labels: lb}}
	})
	return m.(*Gauge)
}

// IntGauge returns the integer gauge for (family, labels), creating it on
// first use. It shares the "gauge" Prometheus type with Gauge, so a family
// must not mix Gauge and IntGauge instruments.
func (r *Registry) IntGauge(family, help string, labels ...Label) *IntGauge {
	lb := renderLabels(labels)
	m := r.lookup(family+lb, "gauge", func() metric {
		return &IntGauge{d: desc{family: family, help: help, labels: lb}}
	})
	g, ok := m.(*IntGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a float gauge", family+lb))
	}
	return g
}

// GaugeFunc registers a callback-backed gauge for (family, labels). Unlike
// the other constructors it must be registered at most once per series;
// re-registering the same series replaces the callback (so a rebuilt
// Adaptive can re-point the gauges at its new state).
func (r *Registry) GaugeFunc(family, help string, fn func() float64, labels ...Label) *GaugeFunc {
	lb := renderLabels(labels)
	key := family + lb
	g := &GaugeFunc{d: desc{family: family, help: help, labels: lb}}
	g.fn.Store(fn)
	if r == nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		old, isFunc := m.(*GaugeFunc)
		if !isFunc {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested gauge func", key, m.typeName()))
		}
		old.fn.Store(fn)
		return old
	}
	r.byKey[key] = g
	r.ordered = append(r.ordered, g)
	return g
}

// Histogram returns the histogram for (family, labels), creating it with
// the given sorted upper bounds on first use. Later calls for the same
// series ignore bounds (the first creation wins) but must still pass a
// non-empty slice.
func (r *Registry) Histogram(family, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending")
	}
	lb := renderLabels(labels)
	m := r.lookup(family+lb, "histogram", func() metric {
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
			d:      desc{family: family, help: help, labels: lb},
		}
	})
	return m.(*Histogram)
}

// WritePrometheus encodes every registered metric in the Prometheus text
// exposition format: series grouped by family, one # HELP and # TYPE header
// per family. Safe for concurrent use with recorders; values are read
// atomically per series (the exposition is not a point-in-time snapshot
// across series, the usual Prometheus semantics).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	snapshot := append([]metric(nil), r.ordered...)
	r.mu.Unlock()

	// Group series by family, preserving first-seen order.
	type family struct {
		name, help, typ string
		series          []metric
	}
	var fams []*family
	idx := make(map[string]*family, len(snapshot))
	for _, m := range snapshot {
		d := m.desc()
		f, ok := idx[d.family]
		if !ok {
			f = &family{name: d.family, help: d.help, typ: m.typeName()}
			idx[d.family] = f
			fams = append(fams, f)
		}
		f.series = append(f.series, m)
	}

	buf := make([]byte, 0, 4096)
	for _, f := range fams {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, strings.ReplaceAll(f.help, "\n", " ")...)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')
		for _, m := range f.series {
			buf = m.write(buf)
		}
	}
	_, err := w.Write(buf)
	return err
}

// Handler returns an http.Handler serving regs, in order, in the Prometheus
// text format — mount it at /metrics. The registries must not share a
// metric family.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r.WritePrometheus(w) != nil {
				return
			}
		}
	})
}

// appendSeries appends `name{labels...,extraK="extraV"}` merging an extra
// label (used for histogram le) into a pre-rendered label block.
func appendSeries(b []byte, name, labels, extraK, extraV string) []byte {
	b = append(b, name...)
	if labels == "" {
		b = append(b, '{')
	} else {
		b = append(b, labels[:len(labels)-1]...) // strip trailing '}'
		b = append(b, ',')
	}
	b = append(b, extraK...)
	b = append(b, `="`...)
	b = append(b, extraV...)
	return append(b, `"}`...)
}

// appendFloat appends v in the shortest round-trippable form, with the
// Prometheus spellings for the special values.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func formatFloat(v float64) string {
	return string(appendFloat(nil, v))
}
