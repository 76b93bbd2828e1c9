package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/vector"
)

// TermExplain describes how one query term filtered during an explained
// search: how often its attribute was defined, how its lower bounds were
// distributed, and how tight the bounds were against the exact differences
// of the tuples that were fetched.
type TermExplain struct {
	Attr     model.AttrID
	Kind     model.Kind
	ListType vector.ListType
	Alpha    float64

	Defined int64 // tuples with a vector element (non-ndf)
	NDF     int64 // tuples estimated at the ndf penalty

	MeanEst float64 // mean lower bound over defined tuples
	MinEst  float64
	MaxEst  float64

	// Tightness compares bounds with truth on fetched tuples:
	// mean(est / exact) over fetched tuples with exact > 0 (1 = perfect).
	Tightness float64
	tightN    int64
}

// Explain reports what a query did: the result, per-term bound statistics,
// the filter outcome, and what the VA-file's two-phase plan would have
// fetched on the same bounds. It is the search's own Algorithm 1 pass with a
// collector watching its columns and fetches; use it for tuning α and n on
// real workloads, not on the hot path.
type Explain struct {
	Results []model.Result
	Scanned int64
	Fetched int64 // table accesses
	// PoolMaxFinal is the k-th distance at the end of the scan: the bar a
	// tuple's estimate had to beat to be fetched.
	PoolMaxFinal float64
	Terms        []TermExplain

	// The VA-file's sequential plan (§IV-A) would filter the whole index
	// first, keep every tuple whose lower-bound distance is at most
	// SequentialBar — the k-th smallest upper-bound distance — and then fetch
	// those SequentialCandidates. Text has no finite upper bound (an unlimited
	// number of strings share any element), so a text term makes the bar
	// +Inf and every scanned tuple a candidate: the paper's argument for the
	// parallel plan.
	SequentialCandidates int64
	SequentialBar        float64

	fetches []fetchRecord // the refine step's table accesses, in order
}

// fetchRecord is one table access of an explained search.
type fetchRecord struct {
	tid     model.TID
	bounds  []float64 // per term: the filter's lower bound
	defined []bool    // per term: false where the bound is the ndf penalty
	exact   []float64 // per term: d[A](T,Q), before the weights
	est     float64   // the combined lower bound the tuple was admitted on
	kept    bool      // whether the pool kept the tuple
}

// FetchOrder lists the tuples the search fetched, in the order it fetched
// them.
func (e *Explain) FetchOrder() []model.TID {
	tids := make([]model.TID, len(e.fetches))
	for i, f := range e.fetches {
		tids[i] = f.tid
	}
	return tids
}

// ExplainSearch runs q with instrumentation (see Explain). It runs with one
// worker whatever SearchParallelism says: Explain's counters describe the
// canonical Algorithm 1 admission sequence, which more workers only have to
// match in results. A corrupt vector-list segment fails the call instead of
// degrading its term, whose bounds are what Explain reports.
func (ix *Index) ExplainSearch(q *model.Query, m *metric.Metric) (*Explain, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = metric.Default()
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	plan := ix.planShape()
	plan.workers = 1
	var ex explainer
	res, stats, err := ix.search(context.Background(), q, m, plan, &ex)
	if err != nil {
		return nil, err
	}
	return ex.finish(res, stats), nil
}

// explainer is the collector an explained search carries on its one worker.
// fillColumn hands each term's cursor the term's explainSink; batch folds the
// filled columns into the per-term statistics and the sequential plan's
// combined bounds, and keeps each entry's bounds; fetch records each refine.
// A normal search carries none.
type explainer struct {
	m              *metric.Metric
	q              *model.Query
	out            Explain
	sinks          []explainSink
	row            []float64 // one entry's per-term upper bounds
	lowers, uppers []float64 // every scanned entry's combined bounds

	// Every scanned entry's per-term bounds and defined flags, len(row) at
	// at[tid]: a refine runs after its batch's columns are gone.
	at      map[model.TID]int
	bounds  []float64
	defined []bool
}

// explainSink is a term's vector.Sink in an explained search: the term's own
// Text/Num, plus whether each entry is defined and its upper bound.
type explainSink struct {
	ts      *termState
	defined []bool
	upper   []float64 // MaxDist for a number, +Inf for text, else the ndf penalty
}

func (s *explainSink) Text(j int, sigs []signature.Sig) {
	s.ts.Text(j, sigs)
	s.defined[j], s.upper[j] = true, math.Inf(1)
}

func (s *explainSink) Num(j int, code uint64) {
	s.ts.Num(j, code)
	s.defined[j], s.upper[j] = true, s.ts.st.quant.MaxDist(s.ts.term.Num, code)
}

// bind attaches the collector to the worker's terms.
func (ex *explainer) bind(q *model.Query, m *metric.Metric, terms []termState) {
	ex.q, ex.m = q, m
	ex.row = make([]float64, len(terms))
	ex.at = make(map[model.TID]int)
	ex.sinks = make([]explainSink, len(terms))
	ex.out.Terms = make([]TermExplain, len(terms))
	for i := range terms {
		ts := &terms[i]
		ex.sinks[i] = explainSink{ts: ts, defined: make([]bool, batchSize), upper: make([]float64, batchSize)}
		te := TermExplain{Attr: ts.term.Attr, Kind: ts.term.Kind, MinEst: math.Inf(1)}
		if ts.st != nil {
			te.ListType = ts.st.layout.Type
			te.Alpha = ts.st.alpha
		}
		ex.out.Terms[i] = te
	}
}

// column readies term i's sink for a batch of n entries, each ndf until the
// cursor says otherwise.
func (ex *explainer) column(i, n int) vector.Sink {
	s := &ex.sinks[i]
	clear(s.defined[:n])
	fill(s.upper[:n], ex.m.NDFPenalty)
	return s
}

// batch folds a filled batch: per term, the lower bounds of its defined
// entries; per entry, the combined lower and upper bound, and the per-term
// bounds and defined flags a fetch record takes.
func (ex *explainer) batch(tids []model.TID, cols [][]float64, n int) {
	for j := 0; j < n; j++ {
		at := len(ex.bounds)
		ex.at[tids[j]] = at
		for i := range ex.sinks {
			ex.bounds = append(ex.bounds, cols[i][j])
			ex.defined = append(ex.defined, ex.sinks[i].defined[j])
			ex.row[i] = ex.sinks[i].upper[j]
			if !ex.sinks[i].defined[j] {
				continue
			}
			te, d := &ex.out.Terms[i], cols[i][j]
			te.MeanEst += d
			if d < te.MinEst {
				te.MinEst = d
			}
			if d > te.MaxEst {
				te.MaxEst = d
			}
		}
		ex.uppers = append(ex.uppers, ex.m.Distance(ex.q.Terms, ex.row))
		ex.lowers = append(ex.lowers, ex.m.Distance(ex.q.Terms, ex.bounds[at:]))
	}
}

// fetch records the refine of tuple tid, whose exact differences are in
// diffs; the caller notes whether the pool kept it. Without a collector it
// does nothing and returns nil.
func (ex *explainer) fetch(tid model.TID, diffs []float64) *fetchRecord {
	if ex == nil {
		return nil
	}
	at := ex.at[tid]
	f := fetchRecord{
		tid:     tid,
		bounds:  ex.bounds[at : at+len(diffs) : at+len(diffs)],
		defined: ex.defined[at : at+len(diffs) : at+len(diffs)],
		exact:   append([]float64(nil), diffs...),
	}
	f.est = ex.m.Distance(ex.q.Terms, f.bounds)
	ex.out.fetches = append(ex.out.fetches, f)
	return &ex.out.fetches[len(ex.out.fetches)-1]
}

// finish completes the Explain from the search's answer and counters.
func (ex *explainer) finish(res []model.Result, stats SearchStats) *Explain {
	out := &ex.out
	out.Results, out.Scanned, out.Fetched = res, stats.Scanned, stats.TableAccesses
	if len(res) > 0 {
		out.PoolMaxFinal = res[len(res)-1].Dist
	}
	// Tightness samples the tuples whose estimate is below the final bar, in
	// scan order, whatever order they were fetched in. With one worker each
	// of them was fetched: no bar it was checked against was below the final
	// one.
	floor := slices.DeleteFunc(slices.Clone(out.fetches), func(f fetchRecord) bool { return !(f.est < out.PoolMaxFinal) })
	slices.SortFunc(floor, func(a, b fetchRecord) int { return cmp.Compare(ex.at[a.tid], ex.at[b.tid]) })
	for _, f := range floor {
		for i := range f.bounds {
			if f.defined[i] && f.exact[i] > 0 {
				out.Terms[i].Tightness += f.bounds[i] / f.exact[i]
				out.Terms[i].tightN++
			}
		}
	}
	for i := range out.Terms {
		te := &out.Terms[i]
		te.Defined, te.NDF = ex.sinks[i].ts.Defined, ex.sinks[i].ts.NDF
		if te.Defined > 0 {
			te.MeanEst /= float64(te.Defined)
		} else {
			te.MinEst = 0
		}
		if te.tightN > 0 {
			te.Tightness /= float64(te.tightN)
		}
	}
	// The sequential plan's bar is the k-th smallest upper bound.
	if k := min(ex.q.K, len(ex.uppers)); k > 0 {
		sort.Float64s(ex.uppers)
		out.SequentialBar = ex.uppers[k-1]
		for _, l := range ex.lowers {
			if l <= out.SequentialBar {
				out.SequentialCandidates++
			}
		}
	}
	return out
}
