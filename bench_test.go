// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (§V). Each drives the same engines and workloads as
// the ivabench harness; run `go run ./cmd/ivabench` for the full tables
// with modeled 2009-HDD times and paper-side comparisons.
//
// Reported custom metrics:
//
//	accesses/query   random table-file fetches (Fig. 8's y-axis)
//	filter-ms/query  measured wall time of the filtering step
//	refine-ms/query  measured wall time of the refining step
//	var-ms2          per-query wall-time variance (Fig. 11's stability)
//
// The default scale is 20,000 tuples; set IVA_BENCH_TUPLES to change it
// (the paper uses 779,019).
package iva_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/sparsewide/iva/internal/bench"
	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

func benchConfig() bench.Config {
	tuples := 20000
	if s := os.Getenv("IVA_BENCH_TUPLES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			tuples = v
		}
	}
	return bench.Config{Tuples: tuples, Seed: 42}
}

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	e, err := bench.SharedEnv(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func defaultMetric(b *testing.B, e *bench.Env) *metric.Metric {
	b.Helper()
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// searchIVA runs b.N queries on the iVA-file ix round-robin over qs,
// reporting accesses and the filter/refine wall split.
func searchIVA(b *testing.B, ix *core.Index, qs []*model.Query, m *metric.Metric) {
	b.Helper()
	var accesses int64
	var filter, refine time.Duration
	var totals []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ix.Search(qs[i%len(qs)], m)
		if err != nil {
			b.Fatal(err)
		}
		accesses += st.TableAccesses
		filter += st.FilterWall
		refine += st.RefineWall
		totals = append(totals, float64((st.FilterWall+st.RefineWall).Microseconds())/1000)
	}
	b.StopTimer()
	reportQueryMetrics(b, accesses, filter, refine, totals)
}

func searchSII(b *testing.B, e *bench.Env, qs []*model.Query, m *metric.Metric) {
	b.Helper()
	var accesses int64
	var filter, refine time.Duration
	var totals []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := e.SII.Search(qs[i%len(qs)], m)
		if err != nil {
			b.Fatal(err)
		}
		accesses += st.TableAccesses
		filter += st.FilterWall
		refine += st.RefineWall
		totals = append(totals, float64((st.FilterWall+st.RefineWall).Microseconds())/1000)
	}
	b.StopTimer()
	reportQueryMetrics(b, accesses, filter, refine, totals)
}

func reportQueryMetrics(b *testing.B, accesses int64, filter, refine time.Duration, totals []float64) {
	n := float64(b.N)
	b.ReportMetric(float64(accesses)/n, "accesses/query")
	b.ReportMetric(float64(filter.Microseconds())/1000/n, "filter-ms/query")
	b.ReportMetric(float64(refine.Microseconds())/1000/n, "refine-ms/query")
	mean := 0.0
	for _, t := range totals {
		mean += t
	}
	mean /= n
	v := 0.0
	for _, t := range totals {
		v += (t - mean) * (t - mean)
	}
	if len(totals) > 1 {
		b.ReportMetric(v/float64(len(totals)-1), "var-ms2")
	}
}

// BenchmarkFig8TableAccesses — Fig. 8: table-file accesses per query vs.
// defined values per query (see accesses/query), iVA vs. SII.
// BenchmarkFig9FilterRefine and BenchmarkFig10Overall share these runs: the
// filter/refine wall split and ns/op are reported on every sub-benchmark.
func BenchmarkFig8TableAccesses(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	for _, nv := range []int{1, 3, 5, 7, 9} {
		qs, _ := e.Queries(nv, 10, 16, nv)
		b.Run(fmt.Sprintf("values=%d/engine=iva", nv), func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
		b.Run(fmt.Sprintf("values=%d/engine=sii", nv), func(b *testing.B) { searchSII(b, e, qs, m) })
	}
}

// BenchmarkFig9FilterRefine — Fig. 9: filtering vs. refining time per query
// at the Table I defaults (see filter-ms/query and refine-ms/query).
func BenchmarkFig9FilterRefine(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	qs, _ := e.Queries(3, 10, 16, 9)
	b.Run("engine=iva", func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
	b.Run("engine=sii", func(b *testing.B) { searchSII(b, e, qs, m) })
}

// BenchmarkFig10Overall — Fig. 10: overall query time per query (ns/op).
func BenchmarkFig10Overall(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	for _, nv := range []int{1, 3, 5, 7, 9} {
		qs, _ := e.Queries(nv, 10, 16, nv)
		b.Run(fmt.Sprintf("values=%d/engine=iva", nv), func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
		b.Run(fmt.Sprintf("values=%d/engine=sii", nv), func(b *testing.B) { searchSII(b, e, qs, m) })
	}
}

// BenchmarkFig11Stability — Fig. 11: per-query time variance (var-ms2).
func BenchmarkFig11Stability(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	qs, _ := e.Queries(3, 10, 40, 11)
	b.Run("engine=iva", func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
	b.Run("engine=sii", func(b *testing.B) { searchSII(b, e, qs, m) })
}

// BenchmarkFig12K — Fig. 12: query time vs. k.
func BenchmarkFig12K(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	for _, k := range []int{5, 10, 15, 20, 25} {
		qs, _ := e.Queries(3, k, 16, 100+k)
		b.Run(fmt.Sprintf("k=%d/engine=iva", k), func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
		b.Run(fmt.Sprintf("k=%d/engine=sii", k), func(b *testing.B) { searchSII(b, e, qs, m) })
	}
}

// BenchmarkFig13Metrics — Fig. 13: the six metric/weight settings S1–S6.
func BenchmarkFig13Metrics(b *testing.B) {
	e := benchEnv(b)
	qs, _ := e.Queries(3, 10, 16, 13)
	for _, s := range []struct{ w, c string }{
		{"EQU", "L1"}, {"EQU", "L2"}, {"EQU", "Linf"},
		{"ITF", "L1"}, {"ITF", "L2"}, {"ITF", "Linf"},
	} {
		m, err := e.Metric(s.w, s.c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("setting=%s+%s/engine=iva", s.w, s.c), func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
		b.Run(fmt.Sprintf("setting=%s+%s/engine=sii", s.w, s.c), func(b *testing.B) { searchSII(b, e, qs, m) })
	}
}

// BenchmarkFig14Alpha — Figs. 14/15: iVA query time and filter/refine split
// vs. relative vector length α (builds a variant index per α).
func BenchmarkFig14Alpha(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	qs, _ := e.Queries(3, 10, 16, 14)
	for _, alpha := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		ix, err := e.BuildIVA(core.Options{Alpha: alpha})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alpha=%.0f%%", alpha*100), func(b *testing.B) { searchIVA(b, ix, qs, m) })
	}
}

// BenchmarkFig16GramLength — Fig. 16: iVA query time vs. gram length n.
func BenchmarkFig16GramLength(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	qs, _ := e.Queries(3, 10, 16, 16)
	for _, n := range []int{2, 3, 4, 5} {
		ix, err := e.BuildIVA(core.Options{N: n})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { searchIVA(b, ix, qs, m) })
	}
}

// BenchmarkFig17Update — Fig. 17's primitives: the per-operation cost of
// one insertion and one deletion for each engine (the amortized curves over
// β come from ivabench -exp fig17, which adds the rebuild term).
func BenchmarkFig17Update(b *testing.B) {
	cfg := benchConfig()
	cfg.Tuples = min(cfg.Tuples, 8000) // private mutable envs per sub-bench

	b.Run("engine=iva", func(b *testing.B) {
		e, err := bench.NewEnv(cfg)
		if err != nil {
			b.Fatal(err)
		}
		live := e.IVA.LiveTIDs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.IVA.Insert(e.TupleValues(cfg.Tuples + i)); err != nil {
				b.Fatal(err)
			}
			if i < len(live) {
				if err := e.IVA.Delete(live[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine=sii", func(b *testing.B) {
		e, err := bench.NewEnv(cfg)
		if err != nil {
			b.Fatal(err)
		}
		live := e.IVA.LiveTIDs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.SII.Insert(e.TupleValues(cfg.Tuples + i)); err != nil {
				b.Fatal(err)
			}
			if i < len(live) {
				if err := e.SII.Delete(live[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine=dst", func(b *testing.B) {
		e, err := bench.NewEnv(cfg)
		if err != nil {
			b.Fatal(err)
		}
		live := e.IVA.LiveTIDs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.DST.Insert(e.TupleValues(cfg.Tuples + i)); err != nil {
				b.Fatal(err)
			}
			if i < len(live) {
				if err := e.DST.Delete(live[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTableIDefaults — Table I: one query at every default setting
// through the three engines (DST included to show the ~constant scan cost).
func BenchmarkTableIDefaults(b *testing.B) {
	e := benchEnv(b)
	m := defaultMetric(b, e)
	qs, _ := e.Queries(3, 10, 16, 1)
	b.Run("engine=iva", func(b *testing.B) { searchIVA(b, e.IVA, qs, m) })
	b.Run("engine=sii", func(b *testing.B) { searchSII(b, e, qs, m) })
	b.Run("engine=dst", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.DST.Search(qs[i%len(qs)], m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
