package bench

import (
	"cmp"
	"math"
	"slices"
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

func (s sample) filterMS() float64 { return modelMS(s.filterIO, s.filterWall) }
func (s sample) refineMS() float64 { return modelMS(s.refineIO, s.refineWall) }

func aggregate(samples []sample) EngineStats {
	s := EngineStats{Queries: len(samples)}
	if s.Queries == 0 {
		return s
	}
	n := float64(s.Queries)
	totals := make([]float64, len(samples))
	for i, sm := range samples {
		filter, refine := sm.filterMS(), sm.refineMS()
		s.MeanTableAccesses += float64(sm.accesses) / n
		s.MeanScanned += float64(sm.scanned) / n
		s.MeanFilterPages += float64(sm.filterIO.PhysReads+sm.filterIO.CacheHits) / n
		s.FilterModelMS += filter / n
		s.RefineModelMS += refine / n
		totals[i] = filter + refine
	}
	s.TotalModelMS = s.FilterModelMS + s.RefineModelMS
	s.StdDevModelMS = stddev(totals)
	return s
}

// stddev is the population standard deviation of xs, 0 for fewer than two.
func stddev(xs []float64) float64 {
	n, mean, v := float64(max(len(xs), 1)), 0.0, 0.0
	for _, x := range xs {
		mean += x / n
	}
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / n)
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

// measure runs a query set through one engine rounds times; the first warm
// queries of a round prime the file cache and are not measured (§V-A). A
// query reports its median round's filter and, apart, its median round's
// refine: model times carry wall time, and a preempted phase moves no median.
func measure(search searcher, queries []*model.Query, warm, rounds int, m *metric.Metric) (EngineStats, error) {
	runs := make([][]sample, max(len(queries)-warm, 0)) // runs[i]: query warm+i's rounds
	for range rounds {
		for i, q := range queries {
			sm, err := search(q, m)
			if err != nil {
				return EngineStats{}, err
			}
			if i >= warm {
				runs[i-warm] = append(runs[i-warm], sm)
			}
		}
	}
	samples := make([]sample, len(runs))
	for i, rs := range runs {
		slices.SortFunc(rs, func(a, b sample) int { return cmp.Compare(a.filterMS(), b.filterMS()) })
		samples[i] = rs[rounds/2]
		slices.SortFunc(rs, func(a, b sample) int { return cmp.Compare(a.refineMS(), b.refineMS()) })
		mid := rs[rounds/2]
		samples[i].accesses, samples[i].refineIO, samples[i].refineWall = mid.accesses, mid.refineIO, mid.refineWall
	}
	return aggregate(samples), nil
}

// pair measures the iVA-file, then SII, on the same query set, three rounds
// each.
func (e *Env) pair(queries []*model.Query, warm int, m *metric.Metric) (iva, sii EngineStats, err error) {
	if iva, err = measure(ivaOn(e.IVA), queries, warm, 3, m); err != nil {
		return iva, sii, err
	}
	sii, err = measure(e.sii(), queries, warm, 3, m)
	return iva, sii, err
}
