package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

func TestExplainSearch(t *testing.T) {
	fx := newFixture(t, 200, Options{}, 501)
	m := metric.Default()
	q := fx.randQuery(t, 3, 10)
	ex, err := fx.ix.ExplainSearch(q, m)
	if err != nil {
		t.Fatal(err)
	}
	// Results must equal a plain search.
	plain, _, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Results) != len(plain) {
		t.Fatalf("%d vs %d results", len(ex.Results), len(plain))
	}
	for i := range plain {
		if math.Abs(ex.Results[i].Dist-plain[i].Dist) > 1e-9 {
			t.Fatalf("result %d: %v vs %v", i, ex.Results[i].Dist, plain[i].Dist)
		}
	}
	if ex.Scanned != fx.tbl.Live() {
		t.Fatalf("scanned %d of %d", ex.Scanned, fx.tbl.Live())
	}
	if len(ex.Terms) != len(q.Terms) {
		t.Fatalf("%d term explains", len(ex.Terms))
	}
	for i, te := range ex.Terms {
		if te.Defined+te.NDF != ex.Scanned {
			t.Fatalf("term %d: defined %d + ndf %d != scanned %d", i, te.Defined, te.NDF, ex.Scanned)
		}
		if te.Defined > 0 {
			if te.MinEst < 0 || te.MeanEst < te.MinEst || te.MeanEst > te.MaxEst {
				t.Fatalf("term %d: est stats inconsistent: min %v mean %v max %v",
					i, te.MinEst, te.MeanEst, te.MaxEst)
			}
			// Tightness is a mean of (lower bound / exact) over fetched
			// tuples, so it must land in [0, 1+ε].
			if te.Tightness < 0 || te.Tightness > 1+1e-9 {
				t.Fatalf("term %d: tightness %v outside [0,1]", i, te.Tightness)
			}
		}
		if te.Alpha == 0 {
			t.Fatalf("term %d: alpha missing", i)
		}
	}
	if ex.PoolMaxFinal <= 0 && len(ex.Results) > 0 && ex.Results[len(ex.Results)-1].Dist > 0 {
		t.Fatal("PoolMaxFinal not recorded")
	}
}

func TestExplainUnknownAttribute(t *testing.T) {
	fx := newFixture(t, 30, Options{}, 502)
	newAttr, _ := fx.tbl.Catalog().AddAttr("phantom", model.KindText)
	m := metric.Default()
	q := (&model.Query{K: 3}).TextTerm(newAttr, "nothing")
	ex, err := fx.ix.ExplainSearch(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Terms[0].NDF != ex.Scanned || ex.Terms[0].Defined != 0 {
		t.Fatalf("phantom attribute explain: %+v", ex.Terms[0])
	}
}

// TestSequentialPlanExplodesOnText reproduces the §IV-A argument for the
// parallel plan: with a text term in the query, signature vectors admit no
// upper bound, the sequential plan's pruning bar is +Inf, and every live
// tuple becomes a candidate — while Algorithm 1 fetches far fewer.
func TestSequentialPlanExplodesOnText(t *testing.T) {
	fx := newFixture(t, 300, Options{}, 601)
	m := metric.Default()
	q := fx.randQuery(t, 3, 10)
	hasText := false
	for _, term := range q.Terms {
		if term.Kind == model.KindText {
			hasText = true
		}
	}
	for !hasText {
		q = fx.randQuery(t, 3, 10)
		for _, term := range q.Terms {
			if term.Kind == model.KindText {
				hasText = true
			}
		}
	}
	ex, err := fx.ix.ExplainSearch(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ex.SequentialBar, 1) {
		t.Fatalf("pruning bar = %v, want +Inf for a text query", ex.SequentialBar)
	}
	if ex.SequentialCandidates != ex.Scanned {
		t.Fatalf("sequential candidates %d != scanned %d: text filtering should fail",
			ex.SequentialCandidates, ex.Scanned)
	}
	if ex.Fetched >= ex.SequentialCandidates {
		t.Fatalf("parallel plan fetched %d, not fewer than sequential %d",
			ex.Fetched, ex.SequentialCandidates)
	}
}

// TestSequentialPlanWorksOnNumeric shows the flip side: for numeric-only
// queries, slice codes do have upper bounds and the classic plan prunes.
func TestSequentialPlanWorksOnNumeric(t *testing.T) {
	fx := newFixture(t, 300, Options{}, 602)
	m := metric.Default()
	// Query the dense numeric attribute (numAttrs[0] is defined everywhere).
	q := (&model.Query{K: 10}).NumTerm(fx.numAttrs[0], 250)
	ex, err := fx.ix.ExplainSearch(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ex.SequentialBar, 1) {
		t.Fatalf("numeric-only query has infinite pruning bar")
	}
	if ex.SequentialCandidates >= ex.Scanned {
		t.Fatalf("no pruning: %d of %d", ex.SequentialCandidates, ex.Scanned)
	}
	// The candidate set must still contain every true top-k member: the
	// parallel plan's results all have lower bounds <= their exact
	// distances <= the k-th upper bound. Sanity: candidates >= k.
	if ex.SequentialCandidates < int64(q.K) {
		t.Fatalf("sequential candidates %d < k", ex.SequentialCandidates)
	}
}

const explainGolden = "testdata/explain.golden"

// TestExplainGolden pins every field of Explain, floats by their bits, over
// internal/dataset's §V-A stream: 2,000 tuples in eight stripes, 20 queries.
// The file was written by the engine whose ExplainSearch took its per-term
// numbers from a second pass beside the search, one cursor per term from the
// head of its list, and whose sequential-plan numbers came from a third; the
// one pass that replaced both matches it byte for byte. Re-recorded for the
// seeded, deferred refine, which moved only fetched (Σ 5,032 → 2,699): the
// tuples below the final bar, which Tightness averages, are fetched in any
// order, and summed in scan order. Re-record it with -update-golden only for a
// change meant to alter the bounds or the fetches, and say so.
func TestExplainGolden(t *testing.T) {
	ix, qs := datasetIndex(t, 2000, 20, Options{CheckpointEvery: 256})
	m := metric.Default()
	var got strings.Builder
	for qi, q := range qs {
		ex, err := ix.ExplainSearch(q, m)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "q%02d k=%d scanned=%d fetched=%d bar=%b seq=%d seqbar=%b\n",
			qi, q.K, ex.Scanned, ex.Fetched, ex.PoolMaxFinal, ex.SequentialCandidates, ex.SequentialBar)
		for _, r := range ex.Results {
			fmt.Fprintf(&got, "  result %d %b\n", r.TID, r.Dist)
		}
		for _, te := range ex.Terms {
			fmt.Fprintf(&got, "  attr%d %v defined=%d ndf=%d min=%b max=%b mean=%b tight=%b\n",
				te.Attr, te.Kind, te.Defined, te.NDF, te.MinEst, te.MaxEst, te.MeanEst, te.Tightness)
		}
	}
	matchGolden(t, explainGolden, got.String())
}
