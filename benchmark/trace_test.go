package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/sparsewide/iva"
)

func TestSelfTimeAndCoverage(t *testing.T) {
	tr := &tracer{}
	root := tr.add(1, 0, "client.op", 0, 100, nil)
	st := tr.add(1, root, "store.search", 10, 90, nil)
	f := tr.add(1, st, "core.filter", 10, 50, nil)
	r := tr.add(1, st, "core.refine", 40, 70, nil) // overlaps filter by 10
	m := tr.add(1, st, "core.merge", 85, 120, nil) // runs past its parent
	self := selfTimes(tr.spans)
	for id, want := range map[uint64]int64{root: 20, st: 80 - 60 - 5, f: 40, r: 30, m: 35} {
		if self[id] != want {
			t.Errorf("span %d (%s): self %d, want %d", id, tr.spans[id-1].Name, self[id], want)
		}
	}
	// Σ non-root self ÷ root duration.
	if got, want := coverage(tr.spans), float64(15+40+30+35)/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage %v, want %v", got, want)
	}
	if got := selfByName(tr.spans)["store.search"]; got != 15 {
		t.Errorf("selfByName: %d", got)
	}
}

// spansOf nests the phases of QueryStats.Phase under store.search, so its
// self time is the call minus filter, refine and merge.
func TestSpansOfSearch(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	rec := opRec{kind: opSearch, start: at(0), end: at(1000), sStart: at(20), sEnd: at(990), results: 10,
		qs: iva.QueryStats{Phase: &iva.PhaseProfile{FilterTime: 600 * time.Microsecond, RefineTime: 300 * time.Microsecond, MergeTime: 10 * time.Microsecond}}}
	tr := &tracer{}
	spansOf(tr, []opRec{rec, {kind: opSearch, err: errTest}}, epoch)
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans, want 5 (a failed op leaves none)", len(tr.spans))
	}
	self := selfByName(tr.spans)
	if self["store.search"] != 60_000 || self["client.op"] != 30_000 || self["core.filter"] != 600_000 {
		t.Errorf("self times %v", self)
	}
	if got := coverage(tr.spans); math.Abs(got-0.97) > 1e-12 {
		t.Errorf("coverage %v, want 0.97", got)
	}
}

// The doubled stream alternates which variant of a search goes first, and
// the overhead is the median of the per-search ratios.
func TestPairedOverhead(t *testing.T) {
	var order []bool
	for j := 0; j < 8; j++ {
		order = append(order, tracedAt(j))
	}
	if want := []bool{false, true, true, false, false, true, true, false}; !reflect.DeepEqual(order, want) {
		t.Errorf("tracedAt over 8 positions = %v", order)
	}
	epoch := time.Unix(0, 0)
	rec := func(us int) opRec {
		return opRec{kind: opSearch, start: epoch, end: epoch.Add(time.Duration(us) * time.Microsecond)}
	}
	untraced := []opRec{rec(100), rec(1000), rec(50)}
	traced := []opRec{rec(102), rec(1020), rec(300)} // the third hit a hiccup
	if got := pairedOverhead(untraced, traced); math.Abs(got-0.02) > 1e-9 {
		t.Errorf("overhead %v, want 0.02 (ratios 1.02, 1.02, 6)", got)
	}
	if got := pairedOverhead(untraced[:2], traced); got != 0 {
		t.Errorf("unpaired records: %v", got)
	}
}
