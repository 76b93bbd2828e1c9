package iva

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func obsTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Create("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < 500; i++ {
		if _, err := st.Insert(Row{
			"brand": Strings([]string{"canon", "nikon", "sony"}[i%3]),
			"price": Num(float64(100 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestQueryStatsIO checks the satellite extension: callers see the query's
// I/O (cache hits, physical reads, modeled disk cost), not just wall time.
func TestQueryStatsIO(t *testing.T) {
	st := obsTestStore(t, Options{})
	_, qs, err := st.Search(NewQuery(5).WhereText("brand", "cannon").WhereNum("price", 230))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Scanned == 0 {
		t.Fatal("no tuples scanned")
	}
	if qs.CacheHits+qs.PhysReads == 0 {
		t.Error("query reported no page requests at all")
	}
	if qs.DiskCostMS < 0 {
		t.Errorf("negative modeled cost %v", qs.DiskCostMS)
	}
}

// TestStoreMetricsText runs a store under load and checks the Prometheus
// exposition carries the acceptance-criteria series: latency histogram
// buckets, cache hit/miss counters, and per-phase timings.
func TestStoreMetricsText(t *testing.T) {
	st := obsTestStore(t, Options{})
	for i := 0; i < 10; i++ {
		if _, _, err := st.Search(NewQuery(3).WhereNum("price", float64(150+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(0); err != nil {
		t.Fatal(err)
	}
	text := st.MetricsText()
	for _, want := range []string{
		"# TYPE iva_query_duration_seconds histogram",
		"iva_query_duration_seconds_bucket{le=",
		`iva_query_phase_duration_seconds_bucket{phase="filter"`,
		`iva_query_phase_duration_seconds_bucket{phase="refine"`,
		"iva_query_duration_seconds_count 10",
		"iva_inserts_total 500",
		"iva_deletes_total 1",
		"iva_io_cache_hits_total",
		`iva_io_reads_total{class="near"}`,
		`iva_io_reads_total{class="seq"}`,
		`iva_io_reads_total{class="rand"}`,
		"iva_io_modeled_cost_ms",
		"iva_tuples_live 499",
		"iva_query_scanned_tuples_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q", want)
		}
	}
}

// TestSlowQueryLog sets a threshold every query exceeds and checks the log
// captures the full per-term trace.
func TestSlowQueryLog(t *testing.T) {
	st := obsTestStore(t, Options{SlowQueryThreshold: time.Nanosecond})
	if _, _, err := st.Search(NewQuery(5).WhereText("brand", "canon").WhereNum("price", 300)); err != nil {
		t.Fatal(err)
	}
	if st.SlowQueryCount() != 1 {
		t.Fatalf("slow query count = %d, want 1", st.SlowQueryCount())
	}
	var b strings.Builder
	if err := st.WriteSlowQueries(&b); err != nil {
		t.Fatal(err)
	}
	blob := b.String()
	var entries []struct {
		Query      string          `json:"query"`
		DurationMS float64         `json:"duration_ms"`
		Trace      json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(blob), &entries); err != nil {
		t.Fatalf("invalid slow-query JSON %s: %v", blob, err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	if !strings.Contains(entries[0].Query, `brand="canon"`) || !strings.Contains(entries[0].Query, "k=5") {
		t.Errorf("query description = %q", entries[0].Query)
	}
	tr := string(entries[0].Trace)
	for _, want := range []string{`"filter"`, `"refine"`, `"fetch"`, `"term:brand"`, `"term:price"`, `"ndf"`, `"pruned"`} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace missing %s: %s", want, tr)
		}
	}
	if strings.Contains(text(st), "iva_slow_queries_total 0") {
		t.Error("slow query counter not incremented")
	}
}

func text(st *Store) string { return st.MetricsText() }

// TestFastQueryPaysNothingForSlowLog: the slow-query log's entry — the
// rendered query, an Fprintf per term, and the phase breakdown — is built for
// a query that meets the threshold and for no other. A query under an armed
// threshold allocates what it does on a store without a log; one over it
// allocates at least the boxed arguments of its description more.
func TestFastQueryPaysNothingForSlowLog(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race differ from run to run")
	}
	q := NewQuery(5).WhereText("brand", "cannon").WhereNum("price", 230)
	for _, unknown := range []string{"a", "b", "c", "d", "e", "f"} { // charged to every tuple
		q.WhereNum(unknown, 1)
	}
	allocs := func(threshold time.Duration) float64 {
		st := obsTestStore(t, Options{SlowQueryThreshold: threshold, SearchParallelism: 1})
		run := func() {
			if _, _, err := st.Search(q); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 80; i++ { // scratch pools warm, the log's ring of 64 full
			run()
		}
		return testing.AllocsPerRun(50, run)
	}
	none, fast, slow := allocs(0), allocs(time.Hour), allocs(time.Nanosecond)
	if fast > none+1 {
		t.Fatalf("a query under the threshold allocates %.0f times, %.0f without a log", fast, none)
	}
	if terms := float64(q.Len()); slow < fast+2*terms {
		t.Fatalf("a slow query allocates %.0f times and a fast one %.0f: the fast one paid for a description of %0.f terms too", slow, fast, terms)
	}
}

// TestSlowQueryDisabled checks the default store logs nothing.
func TestSlowQueryDisabled(t *testing.T) {
	st := obsTestStore(t, Options{})
	if _, _, err := st.Search(NewQuery(3).WhereNum("price", 100)); err != nil {
		t.Fatal(err)
	}
	if st.SlowQueryCount() != 0 {
		t.Fatal("disabled slow-query log captured a query")
	}
	var b strings.Builder
	if err := st.WriteSlowQueries(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("disabled log serialized %q", b.String())
	}
}
