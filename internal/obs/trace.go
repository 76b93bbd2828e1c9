package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace and span ids are 64-bit values unique within the process: a splitmix64
// walk seeded from the clock at startup, so ids differ across restarts but
// cost one atomic add to mint. Rendered as 16 hex digits everywhere (metrics
// exemplars, the slow-query log, /debug/trace), they are the join key between
// a latency histogram bucket and the concrete trace that landed in it.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

func newID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 is reserved for "no id" (the nil span)
	}
	return x
}

// FormatID renders a trace or span id the way every endpoint does.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// Span is one node of a per-query trace: a named, timed piece of work with
// typed annotations and child spans. All methods are safe on a nil receiver,
// so tracing is disabled by passing a nil span down the stack — instrumented
// code needs no conditionals.
//
// Spans whose duration cannot be measured start-to-end (phases interleaved
// in one loop, like the paper's synchronized filter/refine pass) are closed
// with EndAt and an externally accumulated duration; pure annotation
// carriers (per-term statistics) are closed with EndAt(0).
type Span struct {
	name    string
	start   time.Time
	dur     time.Duration
	traceID uint64 // shared by every span of one query's tree
	spanID  uint64 // unique per span

	mu       sync.Mutex
	attrs    []spanAttr
	children []*Span
}

type spanAttr struct {
	key string
	str string
	i   int64
	typ uint8 // 0 string, 1 int
}

// StartSpan begins a root span with a fresh trace id.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), traceID: newID(), spanID: newID()}
}

// Child begins a nested span under the parent's trace id.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), traceID: s.traceID, spanID: newID()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the span's trace id as 16 hex digits ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return FormatID(s.traceID)
}

// SpanID returns the span's own id as 16 hex digits ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return FormatID(s.spanID)
}

// End closes the span, fixing its duration to now−start.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// EndAt closes the span with an explicit duration.
func (s *Span) EndAt(d time.Duration) {
	if s == nil {
		return
	}
	s.dur = d
}

// SetStr annotates the span with a string value.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key: key, str: v, typ: 0})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key: key, i: v, typ: 1})
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's closed duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Children returns a copy of the child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attr returns the annotation value for key rendered as a string, and
// whether it is present.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.key == key {
			return a.render(), true
		}
	}
	return "", false
}

// Find returns the first descendant span (depth-first, self included) with
// the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

func (a spanAttr) render() string {
	switch a.typ {
	case 1:
		return strconv.FormatInt(a.i, 10)
	default:
		return a.str
	}
}

// WriteText renders the span tree as an indented listing.
func (s *Span) WriteText(w io.Writer) error {
	return s.writeText(w, 0)
}

func (s *Span) writeText(w io.Writer, depth int) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	attrs := append([]spanAttr(nil), s.attrs...)
	s.mu.Unlock()
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&b, "%s %.3fms", s.name, float64(s.dur.Nanoseconds())/1e6)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%s", a.key, a.render())
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := c.writeText(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the span tree as
// {"name":..., "trace_id":..., "span_id":..., "duration_ms":...,
// "attrs":{...}, "children":[...]}. The trace id appears on the root span
// only; every span carries its own span id.
func (s *Span) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	s.appendJSON(&b)
	return b.Bytes(), nil
}

func (s *Span) appendJSON(b *bytes.Buffer) { s.appendJSONDepth(b, true) }

func (s *Span) appendJSONDepth(b *bytes.Buffer, root bool) {
	if s == nil {
		b.WriteString("null")
		return
	}
	s.mu.Lock()
	attrs := append([]spanAttr(nil), s.attrs...)
	s.mu.Unlock()
	b.WriteString(`{"name":`)
	b.WriteString(quoteJSON(s.name))
	if root && s.traceID != 0 {
		fmt.Fprintf(b, `,"trace_id":"%016x"`, s.traceID)
	}
	if s.spanID != 0 {
		fmt.Fprintf(b, `,"span_id":"%016x"`, s.spanID)
	}
	fmt.Fprintf(b, `,"duration_ms":%s`,
		strconv.FormatFloat(float64(s.dur.Nanoseconds())/1e6, 'g', -1, 64))
	if len(attrs) > 0 {
		// Stable key order keeps the output diffable.
		sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].key < attrs[j].key })
		b.WriteString(`,"attrs":{`)
		for i, a := range attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(quoteJSON(a.key))
			b.WriteByte(':')
			switch a.typ {
			case 1:
				b.WriteString(strconv.FormatInt(a.i, 10))
			default:
				b.WriteString(quoteJSON(a.str))
			}
		}
		b.WriteByte('}')
	}
	if cs := s.Children(); len(cs) > 0 {
		b.WriteString(`,"children":[`)
		for i, c := range cs {
			if i > 0 {
				b.WriteByte(',')
			}
			c.appendJSONDepth(b, false)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

func jsonFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// JSON has no Inf/NaN literals.
	if strings.ContainsAny(s, "IN") {
		return "null"
	}
	return s
}

func quoteJSON(s string) string { return strconv.Quote(s) }
