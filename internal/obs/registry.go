// Package obs is the repository's metrics registry: dependency-free atomic
// counters, gauges and fixed-bucket latency histograms with Prometheus
// text-format exposition. Traces and the slow-query log are rendered by the
// root package from the stats of the queries it keeps.
//
// The paper's whole evaluation (Figs. 8–16) decomposes query cost into
// sequential index scanning vs. random table accesses; this package makes
// that decomposition continuously observable on a live store instead of only
// inside the bench harness.
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

// Labels attach dimensions to a metric series (e.g. phase="filter"). A nil
// map is the empty label set.
type Labels map[string]string

// With returns a copy of base with k=v added (base is not modified).
func With(base Labels, k, v string) Labels {
	out := make(Labels, len(base)+1)
	for bk, bv := range base {
		out[bk] = bv
	}
	out[k] = v
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free; buckets are upper bounds in ascending order with an implicit
// +Inf bucket. The count of observations is not kept apart from the buckets:
// it is the +Inf bucket's cumulative count, so a scrape during observations
// never reports +Inf below a finite bucket or a _count other than +Inf. The
// sum is kept apart and may lag or lead the buckets by in-flight
// observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	sum    Gauge
}

// DefaultLatencyBuckets spans 100µs to 10s, the range of interest between an
// all-cached scan and a badly I/O-bound query (values in seconds).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1) // first bound >= v
	h.sum.Add(v)
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, cum := h.Buckets()
	return cum[len(cum)-1]
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the upper bounds and the cumulative count of every bucket,
// read in one pass: len(bounds)+1 counts, the last one the +Inf bucket's.
func (h *Histogram) Buckets() ([]float64, []int64) {
	cum := make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return h.bounds, cum
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type series struct {
	labels Labels
	key    string // canonical label rendering, the dedup key
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // insertion order of series keys, for stable output
}

// Registry holds metric families and renders them in Prometheus text format.
// All methods are safe for concurrent use; metric handles are get-or-create,
// so layers can look the same series up independently.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind.promType(), f.kind.promType()))
	}
	return f
}

func (f *family) get(labels Labels) (*series, bool) {
	key := labelKey(labels, "", "")
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels, key: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s, ok
}

// Counter returns the counter series name{labels}, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, kindCounter).get(labels)
	if !ok {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge series name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, kindGauge).get(labels)
	if !ok {
		s.g = &Gauge{}
	}
	return s.g
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time (for counters maintained elsewhere, e.g. the buffer pool's I/O
// stats). Re-registering the same series replaces the function.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.family(name, help, kindCounterFunc).get(labels)
	s.fn = fn
}

// GaugeFunc registers a gauge evaluated at exposition time. Re-registering
// the same series replaces the function.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.family(name, help, kindGaugeFunc).get(labels)
	s.fn = fn
}

// Histogram returns the histogram series name{labels} with the given bucket
// upper bounds (nil selects DefaultLatencyBuckets), creating it on first
// use. Buckets are fixed at creation; later calls reuse the first buckets.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, kindHistogram).get(labels)
	if !ok {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.h
}

// labelKey renders labels canonically: sorted keys, escaped values, with an
// optional extra pair appended last (used for histogram le labels).
func labelKey(labels Labels, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus serializes every metric in the Prometheus text exposition
// format, version 0.0.4. Families are sorted by name; series keep their
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind.promType()); err != nil {
			return err
		}
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		srs := make([]*series, len(order))
		for i, k := range order {
			srs[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range srs {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.key, s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.key, formatFloat(s.g.Value()))
		return err
	case kindCounterFunc, kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.key, formatFloat(s.fn()))
		return err
	case kindHistogram:
		bounds, cum := s.h.Buckets()
		for i, c := range cum {
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelKey(s.labels, "le", le), c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			f.name, s.key, formatFloat(s.h.Sum()), f.name, s.key, cum[len(cum)-1])
		return err
	}
	return nil
}

// Text returns WritePrometheus output as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}
