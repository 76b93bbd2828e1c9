package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// maxQueryDesc bounds the rendered query description retained per entry: an
// adversarial or machine-generated query with megabytes of term text must not
// make the ring log (and every /debug/querylog response) balloon. Truncation
// is marked with a trailing ellipsis.
const maxQueryDesc = 1024

// PhaseBreakdown summarizes one logged query's per-phase cost — the same
// decomposition the phase histograms track, denormalized into the entry so a
// log line answers "where did the time go" without walking the trace.
type PhaseBreakdown struct {
	FilterMS float64
	RefineMS float64
	MergeMS  float64
	Scanned  int64
	Fetched  int64
	Workers  int
	Degraded int // corrupt segments the query degraded past
}

// LogEntry is one captured slow query.
type LogEntry struct {
	Time     time.Time
	Query    string // rendered query description
	Duration time.Duration
	Trace    *Span  // full trace of the offending query
	TraceID  string // the trace's id, the join key into /debug/trace
	Phases   *PhaseBreakdown
}

// QueryLog retains the most recent queries whose duration met a threshold,
// each with its full trace. All methods are safe on a nil receiver (a nil
// log is a disabled log), so callers need no conditionals.
type QueryLog struct {
	threshold time.Duration
	cap       int

	mu      sync.Mutex
	entries []LogEntry // oldest first
	total   int64
}

// NewQueryLog returns a log capturing queries at or above threshold,
// retaining at most capEntries. A non-positive threshold returns nil: the
// disabled log.
func NewQueryLog(threshold time.Duration, capEntries int) *QueryLog {
	if threshold <= 0 {
		return nil
	}
	return &QueryLog{threshold: threshold, cap: capEntries}
}

// Observe records the query if its duration meets the threshold, reporting
// whether it was captured.
func (l *QueryLog) Observe(query string, dur time.Duration, tr *Span) bool {
	return l.ObserveEntry(LogEntry{Query: query, Duration: dur, Trace: tr})
}

// Slow reports whether a query of duration d meets the threshold — what a
// caller asks before it builds an entry, so that a query the log would drop
// does not pay for its description.
func (l *QueryLog) Slow(d time.Duration) bool {
	return l != nil && d >= l.threshold
}

// ObserveEntry records a fully described entry if its Duration meets the
// threshold, reporting whether it was captured. A zero Time is stamped now;
// an empty TraceID is taken from the trace; an over-long Query is truncated.
func (l *QueryLog) ObserveEntry(e LogEntry) bool {
	if !l.Slow(e.Duration) {
		return false
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.TraceID == "" {
		e.TraceID = e.Trace.TraceID()
	}
	if len(e.Query) > maxQueryDesc {
		e.Query = e.Query[:maxQueryDesc] + "…"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.entries) >= l.cap {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:len(l.entries)-1]
	}
	l.entries = append(l.entries, e)
	return true
}

// Total returns how many queries ever met the threshold (captured or
// already evicted).
func (l *QueryLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns the retained entries, newest first.
func (l *QueryLog) Entries() []LogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, len(l.entries))
	for i, e := range l.entries {
		out[len(out)-1-i] = e
	}
	return out
}

// WriteJSON serializes the retained entries, newest first, as a JSON array
// of {"time","query","duration_ms","trace_id","phases","trace"} objects
// (trace_id and phases appear when present). A disabled log writes an empty
// array.
func (l *QueryLog) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, e := range l.Entries() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"time":`)
		b.WriteString(strconv.Quote(e.Time.Format(time.RFC3339Nano)))
		b.WriteString(`,"query":`)
		b.WriteString(strconv.Quote(e.Query))
		b.WriteString(`,"duration_ms":`)
		b.WriteString(strconv.FormatFloat(float64(e.Duration.Nanoseconds())/1e6, 'g', -1, 64))
		if e.TraceID != "" {
			b.WriteString(`,"trace_id":`)
			b.WriteString(strconv.Quote(e.TraceID))
		}
		if p := e.Phases; p != nil {
			fmt.Fprintf(&b, `,"phases":{"filter_ms":%s,"refine_ms":%s,"merge_ms":%s,"scanned":%d,"fetched":%d,"workers":%d,"degraded_segments":%d}`,
				jsonFloat(p.FilterMS), jsonFloat(p.RefineMS), jsonFloat(p.MergeMS),
				p.Scanned, p.Fetched, p.Workers, p.Degraded)
		}
		b.WriteString(`,"trace":`)
		e.Trace.appendJSON(&b)
		b.WriteByte('}')
	}
	b.WriteByte(']')
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}

// WriteText renders the retained entries, newest first, one line per query
// with its phase breakdown — the human-paged form of WriteJSON.
func (l *QueryLog) WriteText(w io.Writer) error {
	for _, e := range l.Entries() {
		var phases string
		if p := e.Phases; p != nil {
			phases = fmt.Sprintf(" filter=%.3fms refine=%.3fms merge=%.3fms scanned=%d fetched=%d workers=%d degraded=%d",
				p.FilterMS, p.RefineMS, p.MergeMS, p.Scanned, p.Fetched, p.Workers, p.Degraded)
		}
		if _, err := fmt.Fprintf(w, "%s %8.3fms trace=%s%s %s\n",
			e.Time.Format(time.RFC3339), float64(e.Duration.Nanoseconds())/1e6,
			e.TraceID, phases, e.Query); err != nil {
			return err
		}
	}
	return nil
}
