package bench

import (
	"math"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

// CPUFactor scales measured CPU time into the modeled milliseconds: the
// paper's testbed is a 1.8 GHz Core2 from 2009, roughly an order of
// magnitude slower per thread than current hardware on this workload.
// Only the modeled columns use it; wall columns stay raw.
const CPUFactor = 10.0

// EngineStats aggregates a measured query set for one engine. Modeled times
// are disk-model I/O milliseconds plus CPUFactor× measured CPU
// milliseconds; wall times are raw measurements on the current machine.
type EngineStats struct {
	Queries int

	MeanTableAccesses float64
	MeanCandidates    float64 // SII only
	MeanScanned       float64
	MeanFilterPages   float64 // page requests during filtering (phys + hits)

	FilterModelMS float64
	RefineModelMS float64
	TotalModelMS  float64
	StdDevModelMS float64

	FilterWallMS float64
	RefineWallMS float64
	TotalWallMS  float64
	StdDevWallMS float64
}

type sample struct {
	accesses    int64
	candidates  int64
	scanned     int64
	filterPages int64
	filterMS    float64
	refineMS    float64
	filterWall  float64
	refineWall  float64
}

func aggregate(samples []sample) EngineStats {
	var s EngineStats
	s.Queries = len(samples)
	if s.Queries == 0 {
		return s
	}
	totalsModel := make([]float64, len(samples))
	totalsWall := make([]float64, len(samples))
	for i, sm := range samples {
		s.MeanTableAccesses += float64(sm.accesses)
		s.MeanCandidates += float64(sm.candidates)
		s.MeanScanned += float64(sm.scanned)
		s.MeanFilterPages += float64(sm.filterPages)
		s.FilterModelMS += sm.filterMS
		s.RefineModelMS += sm.refineMS
		s.FilterWallMS += sm.filterWall
		s.RefineWallMS += sm.refineWall
		totalsModel[i] = sm.filterMS + sm.refineMS
		totalsWall[i] = sm.filterWall + sm.refineWall
	}
	n := float64(s.Queries)
	s.MeanTableAccesses /= n
	s.MeanCandidates /= n
	s.MeanScanned /= n
	s.MeanFilterPages /= n
	s.FilterModelMS /= n
	s.RefineModelMS /= n
	s.FilterWallMS /= n
	s.RefineWallMS /= n
	s.TotalModelMS = s.FilterModelMS + s.RefineModelMS
	s.TotalWallMS = s.FilterWallMS + s.RefineWallMS
	s.StdDevModelMS = stddev(totalsModel)
	s.StdDevWallMS = stddev(totalsWall)
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

// RunIVA measures the iVA-file on a query set; the first `warm` queries
// prime the file cache and are not measured (§V-A).
func (e *Env) RunIVA(queries []*model.Query, warm int, m *metric.Metric) (EngineStats, error) {
	var samples []sample
	for i, q := range queries {
		_, st, err := e.IVA.Search(q, m)
		if err != nil {
			return EngineStats{}, err
		}
		if i < warm {
			continue
		}
		sm := sample{
			accesses:    st.TableAccesses,
			scanned:     st.Scanned,
			filterPages: st.FilterIO.PhysReads + st.FilterIO.CacheHits,
			filterMS:    e.Disk.CostMS(st.FilterIO) + CPUFactor*float64(st.FilterWall.Microseconds())/1000,
			refineMS:    e.Disk.CostMS(st.RefineIO) + CPUFactor*float64(st.RefineWall.Microseconds())/1000,
			filterWall:  float64(st.FilterWall.Microseconds()) / 1000,
			refineWall:  float64(st.RefineWall.Microseconds()) / 1000,
		}
		samples = append(samples, sm)
	}
	return aggregate(samples), nil
}

// RunSII measures the inverted-index baseline on a query set.
func (e *Env) RunSII(queries []*model.Query, warm int, m *metric.Metric) (EngineStats, error) {
	var samples []sample
	for i, q := range queries {
		_, st, err := e.SII.Search(q, m)
		if err != nil {
			return EngineStats{}, err
		}
		if i < warm {
			continue
		}
		sm := sample{
			accesses:   st.TableAccesses,
			candidates: st.Candidates,
			scanned:    st.Scanned,
			filterMS:   e.Disk.CostMS(st.FilterIO) + CPUFactor*float64(st.FilterWall.Microseconds())/1000,
			refineMS:   e.Disk.CostMS(st.RefineIO) + CPUFactor*float64(st.RefineWall.Microseconds())/1000,
			filterWall: float64(st.FilterWall.Microseconds()) / 1000,
			refineWall: float64(st.RefineWall.Microseconds()) / 1000,
		}
		samples = append(samples, sm)
	}
	return aggregate(samples), nil
}

// RunDST measures the direct table scan on a query set.
func (e *Env) RunDST(queries []*model.Query, warm int, m *metric.Metric) (EngineStats, error) {
	pstats := e.Pool.Stats()
	var samples []sample
	for i, q := range queries {
		before := pstats.Snapshot()
		_, st, err := e.DST.Search(q, m)
		if err != nil {
			return EngineStats{}, err
		}
		if i < warm {
			continue
		}
		io := pstats.Snapshot().Sub(before)
		wall := float64(st.Wall.Microseconds()) / 1000
		sm := sample{
			scanned:    st.Scanned,
			filterMS:   e.Disk.CostMS(io) + CPUFactor*wall,
			filterWall: wall,
		}
		samples = append(samples, sm)
	}
	return aggregate(samples), nil
}
