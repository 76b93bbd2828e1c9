package core

import (
	"context"
	"strconv"
	"testing"

	"github.com/sparsewide/iva/internal/obs"
)

// TestSearchTrace verifies the span hierarchy a traced search emits:
// query → filter (with one term:<name> child per query term) and
// query → refine → fetch, with consistent annotation counts.
func TestSearchTrace(t *testing.T) {
	fx := newFixture(t, 400, Options{}, 7)
	q := fx.randQuery(t, 3, 10)

	root := obs.StartSpan("query")
	_, st, err := fx.ix.SearchContext(context.Background(), q, nil, root)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	filter := root.Find("filter")
	refine := root.Find("refine")
	if filter == nil || refine == nil {
		t.Fatalf("missing phase spans; children = %d", len(root.Children()))
	}
	if refine.Find("fetch") == nil {
		t.Fatal("refine span has no fetch child")
	}

	var termSpans []*obs.Span
	for _, c := range filter.Children() {
		if len(c.Name()) > 5 && c.Name()[:5] == "term:" {
			termSpans = append(termSpans, c)
		}
	}
	if len(termSpans) != len(q.Terms) {
		t.Fatalf("got %d term spans, want %d", len(termSpans), len(q.Terms))
	}
	for _, ts := range termSpans {
		defined := attrInt(t, ts, "defined")
		ndf := attrInt(t, ts, "ndf")
		if defined+ndf != st.Scanned {
			t.Errorf("%s: defined %d + ndf %d != scanned %d", ts.Name(), defined, ndf, st.Scanned)
		}
	}

	if got := attrInt(t, filter, "scanned"); got != st.Scanned {
		t.Errorf("filter scanned = %d, want %d", got, st.Scanned)
	}
	fetched := st.Scanned - attrInt(t, filter, "pruned")
	if got := attrInt(t, refine, "fetched"); got != fetched {
		t.Errorf("refine fetched = %d, want %d", got, fetched)
	}
	// Every prune is credited to exactly one term.
	var credited int64
	for _, ts := range termSpans {
		credited += attrInt(t, ts, "pruned")
	}
	if want := attrInt(t, filter, "pruned"); credited != want {
		t.Errorf("per-term pruned sums to %d, filter pruned = %d", credited, want)
	}
}

// TestSearchUntracedMatchesTraced checks tracing changes no results.
func TestSearchUntracedMatchesTraced(t *testing.T) {
	fx := newFixture(t, 300, Options{}, 11)
	q := fx.randQuery(t, 2, 5)
	plain, _, err := fx.ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("query")
	traced, _, err := fx.ix.SearchContext(context.Background(), q, nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("result counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, plain[i], traced[i])
		}
	}
}

func attrInt(t *testing.T, s *obs.Span, key string) int64 {
	t.Helper()
	v, ok := s.Attr(key)
	if !ok {
		t.Fatalf("span %s missing attr %q", s.Name(), key)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("span %s attr %q = %q: %v", s.Name(), key, v, err)
	}
	return n
}
