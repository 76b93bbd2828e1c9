package core

import (
	"context"
	"math"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
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

// Explain reports what a query would do: the result, plus per-term bound
// statistics and the filter outcome. It runs the same Algorithm 1 pass as
// Search with instrumentation, so it is slower; use it for tuning α and n
// on real workloads, not on the hot path.
type Explain struct {
	Results []model.Result
	Scanned int64
	Fetched int64 // table accesses
	// PoolMaxFinal is the k-th distance at the end of the scan: the bar a
	// tuple's estimate had to beat to be fetched.
	PoolMaxFinal float64
	Terms        []TermExplain
}

// ExplainSearch runs q with instrumentation (see Explain). The result pass
// runs with one worker whatever SearchParallelism says: Explain's counters
// describe the canonical Algorithm 1 admission sequence, which more workers
// only have to match in results.
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
	res, stats, err := ix.search(context.Background(), q, m, nil, plan) // warm pass for the result itself
	if err != nil {
		return nil, err
	}
	ex := &Explain{Results: res, Scanned: stats.Scanned, Fetched: stats.TableAccesses}
	if len(res) > 0 {
		ex.PoolMaxFinal = res[len(res)-1].Dist
	}

	terms, err := ix.prepareTerms(q)
	if err != nil {
		return nil, err
	}
	ex.Terms = make([]TermExplain, len(terms))
	for i := range terms {
		te := TermExplain{Attr: terms[i].term.Attr, Kind: terms[i].term.Kind, MinEst: math.Inf(1)}
		if st := terms[i].st; st != nil {
			te.ListType = st.layout.Type
			te.Alpha = st.alpha
		}
		ex.Terms[i] = te
	}

	diffs := make([]float64, len(terms))
	ndfHere := make([]bool, len(terms))
	err = ix.originScan(terms, func(tid model.TID, pos, ptr int64) error {
		for i := range terms {
			d, ndf, err := terms[i].estimateInfo(m, tid, pos)
			if err != nil {
				return err
			}
			diffs[i] = d
			ndfHere[i] = ndf
			te := &ex.Terms[i]
			if ndf {
				te.NDF++
				continue
			}
			te.Defined++
			te.MeanEst += d
			if d < te.MinEst {
				te.MinEst = d
			}
			if d > te.MaxEst {
				te.MaxEst = d
			}
		}
		// Tightness sample: compare bounds to exact diffs on tuples the
		// real search would fetch (estimate below the final pool bar).
		if m.Distance(q.Terms, diffs) < ex.PoolMaxFinal {
			tp, err := ix.tbl.Fetch(ptr)
			if err != nil {
				return err
			}
			for i, term := range q.Terms {
				if ndfHere[i] {
					continue
				}
				exact := m.TermDiff(term, tp)
				if exact > 0 {
					ex.Terms[i].Tightness += diffs[i] / exact
					ex.Terms[i].tightN++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range ex.Terms {
		te := &ex.Terms[i]
		if te.Defined > 0 {
			te.MeanEst /= float64(te.Defined)
		} else {
			te.MinEst = 0
		}
		if te.tightN > 0 {
			te.Tightness /= float64(te.tightN)
		}
	}
	return ex, nil
}
