package obs

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceRing retains a sample of recently completed query traces so an
// operator can pull concrete span trees off a live store (/debug/trace)
// without logging every query. Two paths feed it: Offer samples one query in
// every `every` (an atomic counter, no lock on the common drop path), and
// Force records unconditionally — the slow-query path, so a trace referenced
// by the slow-query log or a histogram exemplar is usually still resident.
type TraceRing struct {
	every int64
	n     atomic.Int64 // queries offered, for the 1-in-every decision

	mu      sync.Mutex
	entries []TraceEntry // ring storage
	next    int          // next overwrite position
	total   int64        // traces ever recorded
}

// TraceEntry is one retained trace.
type TraceEntry struct {
	Time  time.Time
	Trace *Span
}

// NewTraceRing returns a ring keeping the most recent capEntries sampled
// traces, recording one query in every `every` (plus everything Forced).
func NewTraceRing(capEntries, every int) *TraceRing {
	return &TraceRing{every: int64(every), entries: make([]TraceEntry, 0, capEntries)}
}

// Offer records the trace if it falls on the sampling grid, reporting whether
// it was kept.
func (r *TraceRing) Offer(tr *Span) bool {
	if (r.n.Add(1)-1)%r.every != 0 {
		return false
	}
	r.Force(tr)
	return true
}

// Force records the trace unconditionally (slow queries).
func (r *TraceRing) Force(tr *Span) {
	e := TraceEntry{Time: time.Now(), Trace: tr}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, e)
		return
	}
	r.entries[r.next] = e
	r.next = (r.next + 1) % len(r.entries)
}

// Total returns how many traces were ever recorded (kept or since evicted).
func (r *TraceRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Entries returns the retained traces, newest first.
func (r *TraceRing) Entries() []TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEntry, len(r.entries))
	// entries[next-1] is newest once the ring has wrapped; before that the
	// newest is the last appended element.
	for i := range out {
		j := (r.next - 1 - i + 2*len(r.entries)) % len(r.entries)
		out[i] = r.entries[j]
	}
	return out
}

// Find returns the retained trace with the given 16-hex-digit trace id, or
// nil — the lookup behind /debug/trace?id=.
func (r *TraceRing) Find(traceID string) *Span {
	for _, e := range r.Entries() {
		if e.Trace.TraceID() == traceID {
			return e.Trace
		}
	}
	return nil
}

// WriteJSON serializes the retained traces, newest first, as a JSON array of
// {"time","trace"} objects.
func (r *TraceRing) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	r.appendEntriesJSON(&b)
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}

// appendEntriesJSON writes the retained traces, newest first, as a JSON
// array of {"time","trace"} objects.
func (r *TraceRing) appendEntriesJSON(b *bytes.Buffer) {
	b.WriteByte('[')
	for i, e := range r.Entries() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"time":`)
		b.WriteString(strconv.Quote(e.Time.Format(time.RFC3339Nano)))
		b.WriteString(`,"trace":`)
		e.Trace.appendJSON(b)
		b.WriteByte('}')
	}
	b.WriteByte(']')
}
