package iva

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this run")

const traceShapeGolden = "testdata/trace_shape.golden"

// traceMasks blank what differs from run to run in the trace and query-log
// payloads — durations, times, trace ids, the exemplars (which latency bucket
// a query lands in) — and drop span ids, which nothing joins on.
var traceMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`,"span_id":"[0-9a-f]{16}"`), ``},
	{regexp.MustCompile(`"duration_ms":[-+.0-9e]+`), `"duration_ms":0`},
	{regexp.MustCompile(`"(filter|refine|merge)_ms":([-+.0-9e]+|null)`), `"${1}_ms":0`},
	{regexp.MustCompile(`"time":"[^"]*"`), `"time":"T"`},
	{regexp.MustCompile(`"trace_id":"[0-9a-f]{16}"`), `"trace_id":"I"`},
	{regexp.MustCompile(`"exemplars":\[[^\]]*\]`), `"exemplars":[]`},
	{regexp.MustCompile(`(?m)^\S+ +[.0-9]+ms trace=[0-9a-f]{16}`), `T 0ms trace=I`},
	{regexp.MustCompile(`(filter|refine|merge)=[.0-9]+ms`), `${1}=0ms`},
}

func maskTrace(s string) string {
	for _, m := range traceMasks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// TestTraceShapeGolden holds the rendered shape of /debug/trace (the ring and
// one trace by id) and both /debug/querylog formats — span names, attribute
// keys and their order, nesting, the phases object and the text line — to a
// golden file, with every duration, time and id masked.
func TestTraceShapeGolden(t *testing.T) {
	st := obsTestStore(t, Options{SearchParallelism: 1, SlowQueryThreshold: time.Nanosecond})
	queries := []*Query{
		NewQuery(5).WhereText("brand", "canon").WhereNum("price", 300),
		NewQuery(3).WhereNum("price", 150),
		NewQuery(10).WhereText("brand", "nikkon"),
		NewQuery(1).WhereText("brand", "sony").WhereNum("price", 599),
		NewQuery(7).WhereNum("price", 100).WhereText("brand", "canon"),
		NewQuery(20).WhereText("brand", "sny"),
		NewQuery(4).WhereNum("price", 450),
		NewQuery(2).WhereTextWeighted("brand", "nikon", 2).WhereNum("price", 120),
	}
	var last QueryStats
	for _, q := range queries {
		_, qs, err := st.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		last = qs
	}
	var out strings.Builder
	section := func(name string, write func(*bytes.Buffer) error, isJSON bool) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := maskTrace(b.String())
		if isJSON {
			var ind bytes.Buffer
			if err := json.Indent(&ind, []byte(body), "", "  "); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, body)
			}
			body = ind.String()
		}
		out.WriteString("== " + name + "\n" + body)
	}
	section("/debug/trace", func(b *bytes.Buffer) error { return st.WriteTraces(b) }, true)
	section("/debug/trace?id=", func(b *bytes.Buffer) error {
		if found, err := st.WriteTrace(b, last.TraceID); !found {
			return fmt.Errorf("trace %s not retained (%v)", last.TraceID, err)
		}
		return nil
	}, true)
	section("/debug/querylog", func(b *bytes.Buffer) error { return st.WriteSlowQueries(b) }, true)
	section("/debug/querylog?format=text", func(b *bytes.Buffer) error { return st.WriteSlowQueriesText(b) }, false)

	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(traceShapeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceShapeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}

// traceBodies renders every JSON trace payload of the store: the ring, the
// slow-query log, and the trace of each given id.
func traceBodies(t *testing.T, st *Store, ids ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	var b bytes.Buffer
	if err := st.WriteTraces(&b); err != nil {
		t.Fatal(err)
	}
	out["/debug/trace"] = b.String()
	b.Reset()
	if err := st.WriteSlowQueries(&b); err != nil {
		t.Fatal(err)
	}
	out["/debug/querylog"] = b.String()
	for _, id := range ids {
		b.Reset()
		if found, err := st.WriteTrace(&b, id); err != nil || !found {
			t.Fatalf("trace %s: found %v, %v", id, found, err)
		}
		out["/debug/trace?id="+id] = b.String()
	}
	return out
}

// TestTraceJSONValid: a control character in an attribute name or search
// string, and a description cut inside a UTF-8 rune, still render as JSON.
func TestTraceJSONValid(t *testing.T) {
	st := obsTestStore(t, Options{SlowQueryThreshold: time.Nanosecond})
	ctrl := NewQuery(3).WhereText("a\x01", "bell\a")
	// A 2,000-byte description, `k=1 x0="aaa…" … x7="…"`, from eight
	// strings of 243 bytes or more (a string holds at most 255). The é
	// starts at byte 1,023, so the 1,024-byte cut falls between its bytes.
	cut := NewQuery(1)
	for j := 0; j < 8; j++ {
		s := strings.Repeat("a", 243)
		switch j {
		case 4:
			s = strings.Repeat("a", 19) + "é" + strings.Repeat("a", 222)
		case 7:
			s += "aaaaa"
		}
		cut.WhereText(fmt.Sprintf("x%d", j), s)
	}
	if d := cut.describe(); strings.Index(d, "é") != 1023 || len(d) != 2000 {
		t.Fatalf("description of %d bytes with é at %d", len(d), strings.Index(d, "é"))
	}
	var ids []string
	for _, q := range []*Query{ctrl, cut} {
		_, qs, err := st.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, qs.TraceID)
	}
	for name, body := range traceBodies(t, st, ids...) {
		if !json.Valid([]byte(body)) {
			t.Errorf("%s is not JSON:\n%s", name, body)
		}
	}
	var entries []struct{ Query string }
	var b bytes.Buffer
	if err := st.WriteSlowQueries(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &entries); err != nil || len(entries) != 2 {
		t.Fatalf("%d entries, %v", len(entries), err)
	}
	if q := entries[0].Query; !utf8.ValidString(q) || !strings.HasSuffix(q, "a…") {
		t.Errorf("cut description ends %q, want the a before the é and the ellipsis", q[len(q)-8:])
	}
}

// TestTraceNamesUnknownAttribute: a term on an attribute the store has never
// seen is traced by the name the query gave it.
func TestTraceNamesUnknownAttribute(t *testing.T) {
	st := obsTestStore(t, Options{SlowQueryThreshold: time.Nanosecond})
	if _, _, err := st.Search(NewQuery(3).WhereText("colour", "red").WhereNum("price", 120)); err != nil {
		t.Fatal(err)
	}
	for name, body := range traceBodies(t, st) {
		if !strings.Contains(body, `"term:colour"`) || !strings.Contains(body, `"term:price"`) {
			t.Errorf("%s does not name the terms colour and price:\n%s", name, body)
		}
	}
}

type tracedList struct {
	Total  int64
	Traces []struct {
		Trace struct {
			TraceID string `json:"trace_id"`
		}
	}
}

type slowEntry struct {
	TraceID string `json:"trace_id"`
}

// traceLists reads the trace ring and the slow-query log of st.
func traceLists(t *testing.T, st *Store) (ring tracedList, slow []slowEntry) {
	t.Helper()
	var b bytes.Buffer
	if err := st.WriteTraces(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &ring); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := st.WriteSlowQueries(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	return ring, slow
}

// searchN runs the same query n times on st and returns the last trace ID.
func searchN(t *testing.T, st *Store, n int) (last string) {
	t.Helper()
	q := NewQuery(3).WhereNum("price", 150)
	for i := 0; i < n; i++ {
		_, qs, err := st.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		last = qs.TraceID
	}
	return last
}

// TestTraceSlowThreshold: below the slow-query threshold the ring keeps one
// query in 16 and the slow-query log keeps none.
func TestTraceSlowThreshold(t *testing.T) {
	fast := obsTestStore(t, Options{})
	searchN(t, fast, 40)
	if ring, slow := traceLists(t, fast); ring.Total != 3 || len(ring.Traces) != 3 || len(slow) != 0 {
		t.Fatalf("40 fast queries: ring %d of %d, slow log %d; want 3 of 3 and 0", len(ring.Traces), ring.Total, len(slow))
	}
}

// TestTraceListsEviction: the ring and the slow-query log each keep every
// slow query up to the latest 64, newest first, and count every one taken.
func TestTraceListsEviction(t *testing.T) {
	slowSt := obsTestStore(t, Options{SlowQueryThreshold: time.Nanosecond})
	last := searchN(t, slowSt, 70)
	ring, slow := traceLists(t, slowSt)
	if ring.Total != 70 || len(ring.Traces) != 64 || len(slow) != 64 || slowSt.SlowQueryCount() != 70 {
		t.Fatalf("70 slow queries: ring %d of %d, slow log %d of %d; want 64 of 70 in both",
			len(ring.Traces), ring.Total, len(slow), slowSt.SlowQueryCount())
	}
	if ring.Traces[0].Trace.TraceID != last || slow[0].TraceID != last {
		t.Fatalf("newest entries %s and %s, want the last query's %s", ring.Traces[0].Trace.TraceID, slow[0].TraceID, last)
	}
}

// TestTraceReadsDuringSearches renders the trace payloads while searches
// keep adding to them (run under -race in CI).
func TestTraceReadsDuringSearches(t *testing.T) {
	st := obsTestStore(t, Options{SlowQueryThreshold: time.Nanosecond})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, _, err := st.Search(NewQuery(3).WhereText("brand", "nikon").WhereNum("price", float64(100+w*40+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		for name, body := range traceBodies(t, st) {
			if !json.Valid([]byte(body)) {
				t.Fatalf("%s is not JSON:\n%s", name, body)
			}
		}
	}
	wg.Wait()
	if n := st.SlowQueryCount(); n != 120 {
		t.Fatalf("slow query count %d, want 120", n)
	}
}
