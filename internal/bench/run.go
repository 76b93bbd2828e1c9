package bench

import (
	"math"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// CPUFactor scales measured CPU time into the modeled milliseconds: the
// paper's testbed is a 1.8 GHz Core2 from 2009, roughly an order of
// magnitude slower per thread than current hardware on this workload.
const CPUFactor = 10.0

// disk prices physical I/O as a 2009 hard disk would (DESIGN.md §3.5).
var disk = storage.DefaultDiskModel()

// modelMS is the one pricing of a measured step: the disk model's cost of
// its I/O plus CPUFactor × its wall time. Query phases and Fig. 17's
// update primitives all go through it.
func modelMS(io storage.Snapshot, wall time.Duration) float64 {
	return disk.CostMS(io) + CPUFactor*float64(wall.Microseconds())/1000
}

// EngineStats aggregates a measured query set for one engine. Times are
// modeled milliseconds (modelMS).
type EngineStats struct {
	Queries int

	MeanTableAccesses float64
	MeanScanned       float64
	MeanFilterPages   float64 // page requests during filtering (phys + hits)

	FilterModelMS float64
	RefineModelMS float64
	TotalModelMS  float64
	StdDevModelMS float64
}

// sample is one measured query: raw counts, the I/O of its filter and
// refine steps, and their wall times. An engine without a refine step
// (DST) leaves that half zero.
type sample struct {
	accesses, scanned      int64
	filterIO, refineIO     storage.Snapshot
	filterWall, refineWall time.Duration
}

func aggregate(samples []sample) EngineStats {
	s := EngineStats{Queries: len(samples)}
	if s.Queries == 0 {
		return s
	}
	totals := make([]float64, len(samples))
	for i, sm := range samples {
		filter, refine := modelMS(sm.filterIO, sm.filterWall), modelMS(sm.refineIO, sm.refineWall)
		s.MeanTableAccesses += float64(sm.accesses)
		s.MeanScanned += float64(sm.scanned)
		s.MeanFilterPages += float64(sm.filterIO.PhysReads + sm.filterIO.CacheHits)
		s.FilterModelMS += filter
		s.RefineModelMS += refine
		totals[i] = filter + refine
	}
	n := float64(s.Queries)
	s.MeanTableAccesses /= n
	s.MeanScanned /= n
	s.MeanFilterPages /= n
	s.FilterModelMS /= n
	s.RefineModelMS /= n
	s.TotalModelMS = s.FilterModelMS + s.RefineModelMS
	s.StdDevModelMS = stddev(totals)
	return s
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / float64(len(xs)))
}

// searcher answers one query on one engine and reports its sample.
type searcher func(q *model.Query, m *metric.Metric) (sample, error)

// ivaOn searches ix: the environment's iVA-file or a variant of it.
func ivaOn(ix *core.Index) searcher {
	return func(q *model.Query, m *metric.Metric) (sample, error) {
		_, st, err := ix.Search(q, m)
		return sample{st.TableAccesses, st.Scanned, st.FilterIO, st.RefineIO, st.FilterWall, st.RefineWall}, err
	}
}

// sii searches the inverted-index baseline.
func (e *Env) sii() searcher {
	return func(q *model.Query, m *metric.Metric) (sample, error) {
		_, st, err := e.SII.Search(q, m)
		return sample{st.TableAccesses, st.Scanned, st.FilterIO, st.RefineIO, st.FilterWall, st.RefineWall}, err
	}
}

// dst searches the direct table scan. It reports no I/O of its own, so
// the pool's counters are diffed around the call; the scan is all filter.
func (e *Env) dst() searcher {
	pstats := e.Pool.Stats()
	return func(q *model.Query, m *metric.Metric) (sample, error) {
		before := pstats.Snapshot()
		_, st, err := e.DST.Search(q, m)
		return sample{scanned: st.Scanned, filterIO: pstats.Snapshot().Sub(before), filterWall: st.Wall}, err
	}
}

// measure runs a query set through one engine; the first warm queries
// prime the file cache and are not measured (§V-A).
func measure(search searcher, queries []*model.Query, warm int, m *metric.Metric) (EngineStats, error) {
	samples := make([]sample, 0, len(queries))
	for i, q := range queries {
		sm, err := search(q, m)
		if err != nil {
			return EngineStats{}, err
		}
		if i >= warm {
			samples = append(samples, sm)
		}
	}
	return aggregate(samples), nil
}

// pair measures the iVA-file, then SII, on the same query set.
func (e *Env) pair(queries []*model.Query, warm int, m *metric.Metric) (iva, sii EngineStats, err error) {
	if iva, err = measure(ivaOn(e.IVA), queries, warm, m); err != nil {
		return iva, sii, err
	}
	sii, err = measure(e.sii(), queries, warm, m)
	return iva, sii, err
}
