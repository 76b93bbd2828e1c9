package iva

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/model"
)

// A query's trace is a view of its stats. Every search mints a trace id and
// returns its QueryStats; one that is sampled (one fast query in traceEvery)
// or slow (at or above Options.SlowQueryThreshold) is also kept as one
// queryRecord — the counts and durations the search measured — in up to two
// bounded lists, and /debug/trace and /debug/querylog render the record when
// someone reads them. A query that is neither builds nothing more.
const (
	traceKeep  = 64 // records per list
	traceEvery = 16 // the ring keeps one fast query in traceEvery

	// maxQueryDesc bounds the query description a slow record keeps: a query
	// with megabytes of term text must not make every /debug/querylog
	// response balloon. The cut backs up to a rune boundary and is marked
	// with an ellipsis.
	maxQueryDesc = 1024
)

// Trace ids are 64-bit values unique within the process: a splitmix64 walk
// seeded from the clock at startup, so ids differ across restarts but cost
// one atomic add to mint. Rendered as 16 hex digits everywhere (QueryStats,
// the slow-query log, /debug/trace and its latency exemplars), they join a
// query's stats to its retained trace.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

func newTraceID() string {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("%016x", x)
}

// queryRecord is one retained query. It is written once, before it is
// listed, and only read after.
type queryRecord struct {
	time    time.Time
	traceID string
	desc    string // the query's description; slow records only
	k       int
	results int
	plan    time.Duration // resolving the query's attribute names
	dur     time.Duration // the whole search, plan included
	terms   []recordTerm  // in query order, lined up with st.Terms
	st      core.SearchStats
}

// recordTerm names one query term the way the caller did: an attribute the
// store has never seen is still traced by its own name.
type recordTerm struct {
	name string
	kind model.Kind
}

// recordList keeps the latest traceKeep records, the newest overwriting the
// oldest.
type recordList struct {
	entries []*queryRecord
	next    int   // overwrite position once full
	total   int64 // records ever added
}

func (l *recordList) add(r *queryRecord) {
	l.total++
	if len(l.entries) < traceKeep {
		l.entries = append(l.entries, r)
		return
	}
	l.entries[l.next] = r
	l.next = (l.next + 1) % traceKeep
}

// newest returns the retained records, newest first.
func (l *recordList) newest() []*queryRecord {
	out := make([]*queryRecord, len(l.entries))
	for i := range out {
		out[i] = l.entries[(l.next-1-i+2*len(l.entries))%len(l.entries)]
	}
	return out
}

// traceLog holds the store's two lists: the ring (/debug/trace) of sampled
// and slow queries, and the slow-query log (/debug/querylog).
type traceLog struct {
	threshold time.Duration // <= 0: no slow-query log
	fast      atomic.Int64  // fast queries seen, for the one-in-traceEvery sample

	mu         sync.Mutex
	ring, slow recordList
}

// admit reports whether a query of duration d is slow, and whether it is
// kept at all. Only fast queries advance the sample counter, so a stream of
// slow ones does not shift which fast ones are kept.
func (l *traceLog) admit(d time.Duration) (slow, keep bool) {
	if l.threshold > 0 && d >= l.threshold {
		return true, true
	}
	return false, (l.fast.Add(1)-1)%traceEvery == 0
}

func (l *traceLog) add(r *queryRecord, slow bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.add(r)
	if slow {
		l.slow.add(r)
	}
}

// snapshot returns a list's records, newest first, and its total.
func (l *traceLog) snapshot(list *recordList) ([]*queryRecord, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return list.newest(), list.total
}

// keepQuery retains one finished search if admit says so. The description —
// an Fprintf per term — is built for slow queries only.
func (s *Store) keepQuery(q *Query, mq *model.Query, st core.SearchStats, traceID string, results int, plan, dur time.Duration) {
	slow, keep := s.traces.admit(dur)
	if !keep {
		return
	}
	r := &queryRecord{
		time: time.Now(), traceID: traceID, k: q.k, results: results,
		plan: plan, dur: dur, terms: make([]recordTerm, len(mq.Terms)), st: st,
	}
	for i, t := range mq.Terms { // resolveQuery lines mq.Terms up with q.terms
		r.terms[i] = recordTerm{name: q.terms[i].attr, kind: t.Kind}
	}
	if slow {
		r.desc = q.describe()
		if len(r.desc) > maxQueryDesc {
			cut := maxQueryDesc
			for cut > 0 && !utf8.RuneStart(r.desc[cut]) {
				cut--
			}
			r.desc = r.desc[:cut] + "…"
		}
		s.om.slowQueries.Inc()
	}
	s.traces.add(r, slow)
}

// span is one node of a rendered trace. Spans exist only while a record is
// written out; the record is what the store keeps.
type span struct {
	name  string
	dur   time.Duration
	attrs []spanAttr // in key order
	kids  []span
}

// spanAttr is one annotation: a string when str is set, else the integer n.
type spanAttr struct {
	key string
	str string
	n   int64
}

func intAttr[T int | int64](key string, n T) spanAttr { return spanAttr{key: key, n: int64(n)} }

// trace renders the record as the span tree the phases of Algorithm 1 map
// onto. Each worker alternates filter and refine — a stripe's scan, then its
// seed, and a sweep at the end — and workers overlap, so the spans carry the
// search's apportioned phase times rather than start-to-end intervals, and
// the per-term spans are annotation carriers of duration 0.
func (r *queryRecord) trace() span {
	st := &r.st
	filter := span{name: "filter", dur: st.FilterWall, attrs: []spanAttr{
		intAttr("cache_hits", st.FilterIO.CacheHits),
		intAttr("phys_reads", st.FilterIO.PhysReads),
		intAttr("pruned", st.Scanned-st.TableAccesses),
		intAttr("scanned", st.Scanned),
		intAttr("stripes", st.StripesTotal),
		intAttr("workers", st.Workers),
	}}
	for i, t := range st.Terms {
		filter.kids = append(filter.kids, span{name: "term:" + r.terms[i].name, attrs: []spanAttr{
			intAttr("defined", t.Defined),
			{key: "kind", str: r.terms[i].kind.String()},
			intAttr("ndf", t.NDF),
			intAttr("pruned", t.Pruned),
			intAttr("scanned", t.Defined+t.NDF),
		}})
	}
	return span{name: "query", dur: r.dur, attrs: []spanAttr{
		intAttr("k", r.k), intAttr("results", r.results), intAttr("workers", st.Workers),
	}, kids: []span{
		{name: "plan", dur: r.plan, attrs: []spanAttr{intAttr("terms", len(r.terms))}},
		filter,
		{name: "refine", dur: st.RefineWall, attrs: []spanAttr{
			intAttr("cache_hits", st.RefineIO.CacheHits),
			intAttr("fetched", st.TableAccesses),
			intAttr("phys_reads", st.RefineIO.PhysReads),
			intAttr("table_accesses", st.TableAccesses),
		}, kids: []span{
			{name: "fetch", dur: st.FetchWall, attrs: []spanAttr{intAttr("reads", st.RefineIO.PhysReads)}},
		}},
		{name: "merge", dur: st.MergeWall, attrs: []spanAttr{intAttr("pools", st.Workers)}},
	}}
}

// appendJSON writes the span as {"name", "trace_id" (the root only),
// "duration_ms", "attrs", "children"}.
func (sp span) appendJSON(b []byte, traceID string) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, sp.name)
	if traceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, traceID)
	}
	b = append(b, `,"duration_ms":`...)
	b = strconv.AppendFloat(b, durMS(sp.dur), 'g', -1, 64)
	b = append(b, `,"attrs":{`...)
	for i, a := range sp.attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.key)
		b = append(b, ':')
		if a.str != "" {
			b = appendJSONString(b, a.str)
		} else {
			b = strconv.AppendInt(b, a.n, 10)
		}
	}
	b = append(b, '}')
	if len(sp.kids) > 0 {
		b = append(b, `,"children":[`...)
		for i, k := range sp.kids {
			if i > 0 {
				b = append(b, ',')
			}
			b = k.appendJSON(b, "")
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSONString writes s as a JSON string. encoding/json escapes what JSON
// requires — control bytes as \u00XX, a byte that is not UTF-8 as U+FFFD —
// where strconv.Quote would write Go escapes such as \x01 and \a.
func appendJSONString(b []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.Encode(s) // a string always encodes
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}

func appendTime(b []byte, t time.Time) []byte {
	return appendJSONString(b, t.Format(time.RFC3339Nano))
}

// WriteTraces serializes the store's trace ring and the latency histogram's
// bucket exemplars as one JSON object:
// {"total", "traces": [{"time","trace"}...], "exemplars": [...]}. Traces are
// newest first; each exemplar links a latency bucket to the newest retained
// query whose duration fell in it, so its trace id is always one of "traces"
// (and, for a slow query, of the slow-query log).
func (s *Store) WriteTraces(w io.Writer) error {
	recs, total := s.traces.snapshot(&s.traces.ring)
	b := append([]byte(`{"total":`), strconv.FormatInt(total, 10)...)
	b = append(b, `,"traces":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"time":`...)
		b = appendTime(b, r.time)
		b = append(b, `,"trace":`...)
		b = r.trace().appendJSON(b, r.traceID)
		b = append(b, '}')
	}
	b = append(b, `],"exemplars":[`...)
	bounds := s.om.queryDur.Bounds()
	exemplars := make([]*queryRecord, len(bounds)+1) // per bucket, +Inf last
	for _, r := range recs {
		if i := sort.SearchFloat64s(bounds, r.dur.Seconds()); exemplars[i] == nil {
			exemplars[i] = r
		}
	}
	first := true
	for i, r := range exemplars {
		if r == nil {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		b = append(b, `{"le":`...)
		b = appendJSONString(b, le)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, r.dur.Seconds(), 'g', -1, 64)
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, r.traceID)
		b = append(b, `,"time":`...)
		b = appendTime(b, r.time)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// WriteTrace writes the ring's trace with the given 16-hex-digit id as one
// JSON object, reporting whether the ring still holds it; the lookup behind
// /debug/trace?id=.
func (s *Store) WriteTrace(w io.Writer, traceID string) (found bool, err error) {
	recs, _ := s.traces.snapshot(&s.traces.ring)
	for _, r := range recs {
		if r.traceID == traceID {
			_, err := w.Write(append(r.trace().appendJSON(nil, r.traceID), '\n'))
			return true, err
		}
	}
	return false, nil
}

// WriteSlowQueries serializes the slow-query log, newest first, as a JSON
// array of {time, query, duration_ms, trace_id, phases, trace} objects where
// trace is the span tree of the query (filter with per-term children,
// refine, fetch, merge). The log is empty unless Options.SlowQueryThreshold
// is set.
func (s *Store) WriteSlowQueries(w io.Writer) error {
	recs, _ := s.traces.snapshot(&s.traces.slow)
	b := []byte{'['}
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		st := &r.st
		b = append(b, `{"time":`...)
		b = appendTime(b, r.time)
		b = append(b, `,"query":`...)
		b = appendJSONString(b, r.desc)
		b = append(b, `,"duration_ms":`...)
		b = strconv.AppendFloat(b, durMS(r.dur), 'g', -1, 64)
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, r.traceID)
		b = fmt.Appendf(b, `,"phases":{"filter_ms":%s,"refine_ms":%s,"merge_ms":%s,"scanned":%d,"fetched":%d,"workers":%d,"degraded_segments":%d}`,
			strconv.FormatFloat(durMS(st.FilterWall), 'g', -1, 64),
			strconv.FormatFloat(durMS(st.RefineWall), 'g', -1, 64),
			strconv.FormatFloat(durMS(st.MergeWall), 'g', -1, 64),
			st.Scanned, st.TableAccesses, st.Workers, st.DegradedSegments)
		b = append(b, `,"trace":`...)
		b = r.trace().appendJSON(b, r.traceID)
		b = append(b, '}')
	}
	b = append(b, "]\n"...)
	_, err := w.Write(b)
	return err
}

// WriteSlowQueriesText renders the slow-query log one line per entry, newest
// first, with each entry's trace id and phase breakdown — the human-paged
// form of WriteSlowQueries.
func (s *Store) WriteSlowQueriesText(w io.Writer) error {
	recs, _ := s.traces.snapshot(&s.traces.slow)
	for _, r := range recs {
		st := &r.st
		if _, err := fmt.Fprintf(w, "%s %8.3fms trace=%s filter=%.3fms refine=%.3fms merge=%.3fms scanned=%d fetched=%d workers=%d degraded=%d %s\n",
			r.time.Format(time.RFC3339), durMS(r.dur), r.traceID,
			durMS(st.FilterWall), durMS(st.RefineWall), durMS(st.MergeWall),
			st.Scanned, st.TableAccesses, st.Workers, st.DegradedSegments, r.desc); err != nil {
			return err
		}
	}
	return nil
}

// SlowQueryCount reports how many queries ever met the slow-query threshold.
func (s *Store) SlowQueryCount() int64 {
	s.traces.mu.Lock()
	defer s.traces.mu.Unlock()
	return s.traces.slow.total
}
