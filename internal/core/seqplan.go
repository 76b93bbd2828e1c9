package core

import (
	"math"
	"sort"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

// PlanStats compares the VA-file's two-phase sequential plan against the
// iVA-file's parallel plan on one query (§IV-A). The sequential plan scans
// the whole index first, keeps every tuple whose lower-bound distance is at
// most the k-th smallest upper-bound distance, and only then fetches the
// candidates. It requires a meaningful *upper* bound per tuple — available
// for numeric slices, impossible for unlimited-length strings, which is why
// the paper replaces it with the parallel plan.
type PlanStats struct {
	Scanned int64
	// SequentialCandidates is the fetch set the two-phase plan would check.
	SequentialCandidates int64
	// KthUpperBound is the pruning bar of the sequential plan (+Inf when
	// any text term makes upper bounds vacuous).
	KthUpperBound float64
	// ParallelFetches is what Algorithm 1 actually fetched on the same
	// query (from a normal Search run).
	ParallelFetches int64
}

// SequentialPlanStats runs the filter pass of the classic VA-file plan and
// reports the resulting candidate-set size next to the parallel plan's
// fetch count. It performs no refinement fetches of its own.
func (ix *Index) SequentialPlanStats(q *model.Query, m *metric.Metric) (PlanStats, error) {
	var ps PlanStats
	if err := q.Validate(); err != nil {
		return ps, err
	}
	if m == nil {
		m = metric.Default()
	}
	// Parallel-plan reference.
	_, sstats, err := ix.Search(q, m)
	if err != nil {
		return ps, err
	}
	ps.ParallelFetches = sstats.TableAccesses

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	terms, err := ix.prepareTerms(q)
	if err != nil {
		return ps, err
	}
	lowers := make([]float64, 0, len(ix.entries))
	uppers := make([]float64, 0, len(ix.entries))
	lo := make([]float64, len(terms))
	hi := make([]float64, len(terms))
	err = ix.originScan(terms, func(tid model.TID, pos, _ int64) error {
		ps.Scanned++
		for i := range terms {
			l, u, err := terms[i].bounds(m, tid, pos)
			if err != nil {
				return err
			}
			lo[i], hi[i] = l, u
		}
		lowers = append(lowers, m.Distance(q.Terms, lo))
		uppers = append(uppers, m.Distance(q.Terms, hi))
		return nil
	})
	if err != nil {
		return ps, err
	}

	// Pruning bar: k-th smallest upper bound.
	k := q.K
	if k > len(uppers) {
		k = len(uppers)
	}
	if k == 0 {
		return ps, nil
	}
	sort.Float64s(uppers)
	ps.KthUpperBound = uppers[k-1]
	for _, l := range lowers {
		if l <= ps.KthUpperBound {
			ps.SequentialCandidates++
		}
	}
	return ps, nil
}

// bounds returns the per-term lower and upper bound of d[A](T,Q) from the
// tuple's approximation vector. Text values have no finite upper bound (an
// unlimited number of strings share any signature); ndf is exact on both
// sides.
func (ts *termState) bounds(m *metric.Metric, tid model.TID, pos int64) (lower, upper float64, err error) {
	if ts.st == nil {
		return m.NDFPenalty, m.NDFPenalty, nil
	}
	e, err := ts.cursor.MoveTo(tid, pos)
	if err != nil {
		return 0, 0, err
	}
	if e.NDF {
		return m.NDFPenalty, m.NDFPenalty, nil
	}
	switch ts.term.Kind {
	case model.KindText:
		best := math.Inf(1)
		for i := range e.Sigs {
			if d := ts.qs.Est(e.Sigs[i]); d < best {
				best = d
			}
		}
		return best, math.Inf(1), nil
	case model.KindNumeric:
		return ts.st.quant.MinDist(ts.term.Num, e.Code),
			ts.st.quant.MaxDist(ts.term.Num, e.Code), nil
	}
	return m.NDFPenalty, m.NDFPenalty, nil
}
