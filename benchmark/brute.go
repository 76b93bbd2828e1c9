package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

// bruteMetric is the reference the engine's answers are held to: the exact
// distance of §III-A computed straight from the generated rows (edit distance
// from internal/gram, the L2/EQU combination from internal/metric), with no
// index, no table file and no tuple ids of the engine's making involved.
type bruteMetric struct{ m *metric.Metric }

func newBruteMetric() bruteMetric { return bruteMetric{metric.Default()} }

func (b bruteMetric) distance(q *query, r *row, terms []model.QueryTerm, diffs []float64) float64 {
	for i, t := range q.terms {
		c := r.find(t.attr)
		switch {
		case c == nil:
			diffs[i] = b.m.NDFPenalty
		case t.str == "":
			diffs[i] = math.Abs(t.num - c.num)
		default:
			best := math.Inf(1)
			for _, s := range c.strs {
				if d := float64(gram.EditDistance(t.str, s)); d < best {
					best = d
				}
			}
			diffs[i] = best
		}
	}
	return b.m.Distance(terms, diffs)
}

// modelTerms renders a query's terms for metric.Distance, which reads only
// their weights (none set: the EQU scheme applies).
func modelTerms(q *query) []model.QueryTerm {
	terms := make([]model.QueryTerm, len(q.terms))
	for i, t := range q.terms {
		terms[i] = model.QueryTerm{Attr: model.AttrID(t.attr), Kind: model.KindNumeric, Num: t.num, Str: t.str}
		if t.str != "" {
			terms[i].Kind = model.KindText
		}
	}
	return terms
}

// topK ranks the live rows by (distance, tuple id) and returns the first
// queryK. live lists the handles to rank; nil ranks rows[0:len(tids)].
func (b bruteMetric) topK(q *query, rows []*row, live []int, tids []uint32) []iva.Result {
	terms := modelTerms(q)
	diffs := make([]float64, len(terms))
	n := len(live)
	if live == nil {
		n = len(tids)
	}
	all := make([]iva.Result, n)
	for i := range all {
		h := i
		if live != nil {
			h = live[i]
		}
		all[i] = iva.Result{TID: tids[h], Dist: b.distance(q, rows[h], terms, diffs)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].TID < all[j].TID
	})
	if len(all) > queryK {
		all = all[:queryK]
	}
	return all
}

// diffAnswers returns "" when the two ranked lists are the same (tid, dist)
// pairs, else a one-line description of the first difference.
func diffAnswers(got, want []iva.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d results, brute force has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d: got (tid %d, dist %v), brute force has (tid %d, dist %v)",
				i, got[i].TID, got[i].Dist, want[i].TID, want[i].Dist)
		}
	}
	return ""
}
