package iva

import (
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func fillProfiled(t *testing.T, n int, opts Options) (*Store, *Query) {
	t.Helper()
	s, err := Create("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		if _, err := s.Insert(map[string]Value{
			"Type":  Strings("Digital Camera"),
			"Price": Num(float64(100 + i%97)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s, NewQuery(7).WhereNum("Price", 150).WhereText("Type", "Camera")
}

// TestSearchPhaseProfile asserts what every Search reports about its own
// execution: the phases fit inside the caller's wall clock, there is one
// profile per worker, and the workers' shares sum to the query's totals.
func TestSearchPhaseProfile(t *testing.T) {
	s, q := fillProfiled(t, 400, Options{})
	start := time.Now()
	_, qs, err := s.Search(q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Phase == nil {
		t.Fatal("stats missing phase breakdown")
	}
	if len(qs.TraceID) != 16 {
		t.Fatalf("trace id %q, want 16 hex digits", qs.TraceID)
	}
	ph := qs.Phase
	total := ph.FilterTime + ph.RefineTime + ph.MergeTime
	if total <= 0 {
		t.Fatalf("phase times sum to %v", total)
	}
	if total > elapsed {
		t.Fatalf("phases (%v) exceed measured wall clock (%v)", total, elapsed)
	}
	if ph.StripesTotal < 1 {
		t.Fatalf("plan covered %d stripes", ph.StripesTotal)
	}
	if len(ph.Workers) != qs.Workers {
		t.Fatalf("%d worker profiles for %d workers", len(ph.Workers), qs.Workers)
	}
	var scanned, fetched int64
	for _, w := range ph.Workers {
		scanned += w.Scanned
		fetched += w.Fetched
	}
	if scanned != qs.Scanned || fetched != qs.TableAccesses {
		t.Fatalf("worker profiles scanned %d fetched %d, query scanned %d fetched %d",
			scanned, fetched, qs.Scanned, qs.TableAccesses)
	}
}

// TestProfileRender pins the `ivatool query -profile` rendering against a
// golden text, with durations and the trace id normalised — on a tuple list of
// one stripe and on one of three. One worker keeps the per-worker line and the
// I/O counters deterministic.
func TestProfileRender(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tuples int
		golden string
	}{
		{"one-stripe", 200, `Search k=7 Price=150 Type="Camera"
  time=Xms results=7 workers=1 trace=T
  Filter: Xms  scanned=200 stripes=1
  Refine: Xms  fetched=10
  Merge:  Xms
  I/O: cache_hits=14 phys_reads=0 pool_hit_ratio=100.0% disk_cost=Xms
  Worker 0: stripes=1 scanned=200 fetched=10 busy=Xms
`},
		{"three-stripes", 4200, `Search k=7 Price=150 Type="Camera"
  time=Xms results=7 workers=1 trace=T
  Filter: Xms  scanned=4200 stripes=3
  Refine: Xms  fetched=7
  Merge:  Xms
  I/O: cache_hits=22 phys_reads=0 pool_hit_ratio=100.0% disk_cost=Xms
  Worker 0: stripes=3 scanned=4200 fetched=7 busy=Xms
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, q := fillProfiled(t, tc.tuples, Options{SearchParallelism: 1})
			res, qs, err := s.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			out := qs.Render(q, len(res), time.Millisecond)
			if !strings.Contains(out, "trace="+qs.TraceID) {
				t.Errorf("rendering does not carry the query's trace id %s:\n%s", qs.TraceID, out)
			}
			out = regexp.MustCompile(`[0-9.]+ms`).ReplaceAllString(out, "Xms")
			out = strings.Replace(out, qs.TraceID, "T", 1)
			if out != tc.golden {
				t.Errorf("rendering changed:\n got:\n%s\nwant:\n%s", out, tc.golden)
			}
		})
	}
}

// metricValue extracts one sample's value from a Prometheus text exposition.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("sample %q not found in exposition", sample)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q value %q: %v", sample, m[1], err)
	}
	return v
}

// TestPhaseHistogramsSumToLatency asserts the acceptance property that the
// per-phase latency histograms decompose the whole-query histogram: summed
// over many queries, filter+refine+merge time equals end-to-end time minus
// per-query dispatch overhead (bounded by a generous slack).
func TestPhaseHistogramsSumToLatency(t *testing.T) {
	s, q := fillProfiled(t, 500, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		if _, _, err := s.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	text := s.MetricsText()
	durSum := metricValue(t, text, "iva_query_duration_seconds_sum")
	phaseSum := metricValue(t, text, `iva_query_phase_duration_seconds_sum{phase="filter"}`) +
		metricValue(t, text, `iva_query_phase_duration_seconds_sum{phase="refine"}`) +
		metricValue(t, text, `iva_query_phase_duration_seconds_sum{phase="merge"}`)
	if phaseSum <= 0 {
		t.Fatalf("phase histograms observed nothing (sum=%g)", phaseSum)
	}
	// Phases are sub-intervals of the query span; they can never exceed it.
	if phaseSum > durSum*1.001+1e-6 {
		t.Fatalf("phase sum %gs exceeds query duration sum %gs", phaseSum, durSum)
	}
	// And they must account for it up to dispatch overhead: allow half the
	// total plus 1ms per query of absolute slack so the assertion stays
	// robust on slow CI machines while still catching a dead phase timer.
	if slack := durSum/2 + n*0.001; phaseSum < durSum-slack {
		t.Fatalf("phase sum %gs accounts for too little of %gs", phaseSum, durSum)
	}
	if c := metricValue(t, text, "iva_query_duration_seconds_count"); c < n {
		t.Fatalf("duration histogram count %g, want >= %d", c, n)
	}
}

// TestWriteTracesJSON exercises the /debug/trace payload: valid JSON, the
// ring retains the query just run, exemplars carry well-formed trace ids, and
// WriteTrace resolves an id round-tripped through QueryStats. Its 1 ns
// threshold retains every query, so it cannot tell whether an exemplar names
// a retained trace; TestExemplarsResolve runs where the ring samples.
func TestWriteTracesJSON(t *testing.T) {
	s, q := fillProfiled(t, 200, Options{SlowQueryThreshold: time.Nanosecond}) // every query is slow, and so retained
	_, qs, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.WriteTraces(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total  int64 `json:"total"`
		Traces []struct {
			Trace json.RawMessage `json:"trace"`
		} `json:"traces"`
		Exemplars []struct {
			LE      string  `json:"le"`
			Value   float64 `json:"value"`
			TraceID string  `json:"trace_id"`
		} `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace payload not JSON: %v\n%s", err, b.String())
	}
	if doc.Total < 1 || len(doc.Traces) < 1 {
		t.Fatalf("ring retained %d/%d traces, want >= 1", len(doc.Traces), doc.Total)
	}
	if len(doc.Exemplars) == 0 {
		t.Fatal("latency histogram produced no exemplars")
	}
	for _, e := range doc.Exemplars {
		if len(e.TraceID) != 16 {
			t.Fatalf("exemplar trace id %q, want 16 hex digits", e.TraceID)
		}
	}
	var tr strings.Builder
	if found, err := s.WriteTrace(&tr, qs.TraceID); err != nil || !found {
		t.Fatalf("trace %s not retained at sample-every=1 (%v)", qs.TraceID, err)
	} else if !strings.Contains(tr.String(), `"trace_id":"`+qs.TraceID+`"`) {
		t.Fatalf("WriteTrace wrote %s, want trace %s", tr.String(), qs.TraceID)
	}
}

// TestExemplarsResolve runs fast queries with no slow threshold, so the ring
// keeps one in traceEvery, and checks that every latency exemplar names a
// trace the same /debug/trace body lists and WriteTrace finds.
func TestExemplarsResolve(t *testing.T) {
	s, q := fillProfiled(t, 200, Options{})
	for i := 0; i < 40; i++ {
		if _, _, err := s.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := s.WriteTraces(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total  int64 `json:"total"`
		Traces []struct {
			Trace struct {
				TraceID    string  `json:"trace_id"`
				DurationMS float64 `json:"duration_ms"`
			} `json:"trace"`
		} `json:"traces"`
		Exemplars []struct {
			LE      string  `json:"le"`
			Value   float64 `json:"value"`
			TraceID string  `json:"trace_id"`
		} `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace payload not JSON: %v\n%s", err, b.String())
	}
	if want := (40 + traceEvery - 1) / traceEvery; doc.Total != int64(want) {
		t.Fatalf("ring kept %d of 40 fast queries, want %d", doc.Total, want)
	}
	if len(doc.Exemplars) == 0 {
		t.Fatal("latency histogram produced no exemplars")
	}
	retained := map[string]float64{}
	for _, tr := range doc.Traces {
		retained[tr.Trace.TraceID] = tr.Trace.DurationMS
	}
	for _, e := range doc.Exemplars {
		ms, ok := retained[e.TraceID]
		if !ok {
			t.Errorf("exemplar le=%s names trace %q, which the ring does not list", e.LE, e.TraceID)
			continue
		}
		if math.Abs(ms-e.Value*1e3) > 1e-6 {
			t.Errorf("exemplar le=%s value %gs, its trace ran %gms", e.LE, e.Value, ms)
		}
		if found, err := s.WriteTrace(io.Discard, e.TraceID); err != nil || !found {
			t.Errorf("WriteTrace(%s) found=%v err=%v", e.TraceID, found, err)
		}
	}
}
