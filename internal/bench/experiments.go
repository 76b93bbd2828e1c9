package bench

import (
	"fmt"
	"math/rand"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
)

// Result is one experiment's printable output: a header row, data rows and
// free-form notes (the comparison claims the paper makes about the figure).
type Result struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// queryCount and warmCount mirror §V-A: 50 queries, 10 for warming.
const (
	queryCount = 50
	warmCount  = 10
)

// sweepValues is Figs. 8–11's x-axis: defined values per query.
var sweepValues = []int{1, 3, 5, 7, 9}

// ExpDefaults reports the Table I settings, the dataset statistics against
// the paper's, and file sizes (§V-A prose: table 355.7 MB, SII 101.5 MB,
// iVA 82.7–116.7 MB at full scale).
func ExpDefaults(e *Env) (Result, error) {
	r := Result{
		Name:   "defaults",
		Title:  "Table I & §V-A setup: defaults, dataset statistics, file sizes",
		Header: []string{"parameter", "value", "paper"},
	}
	cfg := e.Cfg
	// Dataset statistics.
	tuples := e.Tbl.Live()
	attrs := e.Tbl.Catalog().NumAttrs()
	var defined int64
	for _, info := range e.Tbl.Catalog().Attrs() {
		defined += info.DF
	}
	var sampleStrs, strBytes int64
	for i := 0; i < min(cfg.Tuples, 2000); i++ {
		for _, v := range e.Gen.Values(i) {
			sampleStrs += int64(len(v.Strs))
			for _, s := range v.Strs {
				strBytes += int64(len(s))
			}
		}
	}
	meanLen := float64(strBytes) / float64(max(sampleStrs, 1))
	r.Rows = append(r.Rows,
		[]string{"defined values per query", "3", "3"},
		[]string{"k", "10", "10"},
		[]string{"distance metric", "Euclidean (L2)", "Euclidean"},
		[]string{"attribute weight", "EQU", "Equal"},
		[]string{"alpha", pct(alpha), "20%"},
		[]string{"n", fmt.Sprint(gramN), "2"},
		[]string{"file cache", fmt.Sprintf("%d MiB", cacheBytes>>20), "10 MB"},
		[]string{"tuples", fmt.Sprint(tuples), "779,019"},
		[]string{"attributes", fmt.Sprint(attrs), "1,147 (1,081 text)"},
		[]string{"mean attrs/tuple", f1(float64(defined) / float64(tuples)), "16.3"},
		[]string{"mean string bytes", f1(meanLen), "16.8"},
		[]string{"table file MB", f1(float64(e.Tbl.Bytes()) / 1e6), "355.7 (at 779k)"},
		[]string{"SII file MB", f1(float64(e.SII.SizeBytes()) / 1e6), "101.5 (at 779k)"},
		[]string{"iVA file MB", f1(float64(e.IVA.SizeBytes()) / 1e6), "82.7–116.7 (at 779k)"},
	)

	// One default query run, all three engines.
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return r, err
	}
	qs, warm := e.Queries(3, 10, queryCount, 1)
	iva, sii, err := e.pair(qs, warm, m)
	if err != nil {
		return r, err
	}
	// DST is slow and constant; 5 measured queries suffice.
	dst, err := measure(e.dst(), qs[:warm+5], warm, 1, m)
	if err != nil {
		return r, err
	}
	r.Rows = append(r.Rows,
		[]string{"iVA query (model ms)", f1(iva.TotalModelMS), "~2,000"},
		[]string{"SII query (model ms)", f1(sii.TotalModelMS), "~4,000"},
		[]string{"DST query (model ms)", f1(dst.TotalModelMS), "~30,000"},
	)
	r.Notes = append(r.Notes,
		"Paper-scale absolute values shrink with the scaled-down tuple count; the ordering iVA < SII << DST is the reproduced claim.")
	return r, nil
}

// sweepPoint is one x of the value sweep: iVA and SII on one query set.
type sweepPoint struct {
	values   int
	iva, sii EngineStats
}

// valueSweep measures Figs. 8–11's sweep once per environment: for each
// value count, one §V-A query set (10 warm-up queries, then 40 measured)
// through the iVA-file, then SII (pair). The four figures view this run.
func (e *Env) valueSweep() ([]sweepPoint, error) {
	e.sweepOnce.Do(func() {
		m, err := e.Metric("EQU", "L2")
		if err != nil {
			e.sweepErr = err
			return
		}
		for _, nv := range sweepValues {
			qs, warm := e.Queries(nv, 10, queryCount, nv)
			iva, sii, err := e.pair(qs, warm, m)
			if err != nil {
				e.sweep, e.sweepErr = nil, err
				return
			}
			e.sweep = append(e.sweep, sweepPoint{nv, iva, sii})
		}
	})
	return e.sweep, e.sweepErr
}

// sweepView renders r's rows from the value sweep: the value count, then
// cols of that point's two engines.
func (e *Env) sweepView(r Result, cols func(iva, sii EngineStats) []string) (Result, error) {
	sweep, err := e.valueSweep()
	if err != nil {
		return r, err
	}
	for _, p := range sweep {
		r.Rows = append(r.Rows, append([]string{fmt.Sprint(p.values)}, cols(p.iva, p.sii)...))
	}
	return r, nil
}

// ExpFig8 reproduces Fig. 8: table-file accesses per query vs. the number
// of defined values per query, iVA vs. SII.
func ExpFig8(e *Env) (Result, error) {
	return e.sweepView(Result{
		Name:   "fig8",
		Title:  "Fig. 8: table file accesses per query vs. defined values per query",
		Header: []string{"values/query", "iVA accesses", "SII accesses", "iVA/SII"},
		Notes:  []string{"Paper: iVA accesses are ~1.5–22% of SII's and do not grow steadily with query width."},
	}, func(iva, sii EngineStats) []string {
		ratio := 0.0
		if sii.MeanTableAccesses > 0 {
			ratio = iva.MeanTableAccesses / sii.MeanTableAccesses
		}
		return []string{f1(iva.MeanTableAccesses), f1(sii.MeanTableAccesses), pct(ratio)}
	})
}

// ExpFig9 reproduces Fig. 9: filtering and refining time per query.
func ExpFig9(e *Env) (Result, error) {
	return e.sweepView(Result{
		Name:  "fig9",
		Title: "Fig. 9: filtering and refining time per query (model ms)",
		Header: []string{"values/query", "iVA filter", "SII filter",
			"iVA refine", "SII refine"},
		Notes: []string{"Paper: iVA sacrifices filtering time (it scans vectors, not just tids) and gains much lower refining time."},
	}, func(iva, sii EngineStats) []string {
		return []string{f1(iva.FilterModelMS), f1(sii.FilterModelMS), f1(iva.RefineModelMS), f1(sii.RefineModelMS)}
	})
}

// ExpFig10 reproduces Fig. 10: overall query time per query.
func ExpFig10(e *Env) (Result, error) {
	return e.sweepView(Result{
		Name:   "fig10",
		Title:  "Fig. 10: overall query time per query (model ms)",
		Header: []string{"values/query", "iVA", "SII", "SII/iVA speedup"},
		Notes:  []string{"Paper: iVA is usually about twice as fast as SII."},
	}, func(iva, sii EngineStats) []string {
		sp := 0.0
		if iva.TotalModelMS > 0 {
			sp = sii.TotalModelMS / iva.TotalModelMS
		}
		return []string{f1(iva.TotalModelMS), f1(sii.TotalModelMS), f2(sp) + "x"}
	})
}

// ExpFig11 reproduces Fig. 11: standard deviation of single-query time.
func ExpFig11(e *Env) (Result, error) {
	return e.sweepView(Result{
		Name:   "fig11",
		Title:  "Fig. 11: standard deviation of query time (model ms)",
		Header: []string{"values/query", "iVA stddev", "SII stddev"},
		Notes:  []string{"Paper: the iVA-file significantly improves the stability of single-query time."},
	}, func(iva, sii EngineStats) []string {
		return []string{f1(iva.StdDevModelMS), f1(sii.StdDevModelMS)}
	})
}

// ExpFig12 reproduces Fig. 12: query time vs. k.
func ExpFig12(e *Env) (Result, error) {
	r := Result{
		Name:   "fig12",
		Title:  "Fig. 12: query time vs. k (model ms)",
		Header: []string{"k", "iVA", "SII"},
	}
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return r, err
	}
	// One workload; only k varies (the paper compares the same queries
	// under different k).
	base, warm := e.Queries(3, 10, queryCount, 12)
	for _, k := range []int{5, 10, 15, 20, 25} {
		qs := make([]*model.Query, len(base))
		for i, q := range base {
			cp := *q
			cp.K = k
			qs[i] = &cp
		}
		iva, sii, err := e.pair(qs, warm, m)
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(k), f1(iva.TotalModelMS), f1(sii.TotalModelMS)})
	}
	r.Notes = append(r.Notes,
		"Paper: iVA beats SII for all k, with a flatter slope as k grows.")
	return r, nil
}

// ExpFig13 reproduces Fig. 13: the six metric/weight settings S1..S6.
func ExpFig13(e *Env) (Result, error) {
	r := Result{
		Name:   "fig13",
		Title:  "Fig. 13: distance metrics and attribute weights S1–S6 (model ms)",
		Header: []string{"setting", "iVA", "SII"},
	}
	settings := []struct {
		label, weights, comb string
	}{
		{"S1 EQU+L1", "EQU", "L1"},
		{"S2 EQU+L2", "EQU", "L2"},
		{"S3 EQU+Linf", "EQU", "Linf"},
		{"S4 ITF+L1", "ITF", "L1"},
		{"S5 ITF+L2", "ITF", "L2"},
		{"S6 ITF+Linf", "ITF", "Linf"},
	}
	qs, warm := e.Queries(3, 10, queryCount, 13)
	for _, s := range settings {
		m, err := e.Metric(s.weights, s.comb)
		if err != nil {
			return r, err
		}
		iva, sii, err := e.pair(qs, warm, m)
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{s.label, f1(iva.TotalModelMS), f1(sii.TotalModelMS)})
	}
	r.Notes = append(r.Notes,
		"Paper: the iVA-file outperforms SII significantly under all six settings.")
	return r, nil
}

// alphaSweep is Fig. 14/15's x-axis.
var alphaSweep = []float64{0.10, 0.15, 0.20, 0.25, 0.30}

// alphaVariants are the iVA-file's options along alphaSweep.
func alphaVariants() []core.Options {
	opts := make([]core.Options, len(alphaSweep))
	for i, a := range alphaSweep {
		opts[i] = core.Options{Alpha: a}
	}
	return opts
}

// variantRows measures a private iVA-file per option set (BuildIVA) on one
// default query set and renders one row per variant.
func (e *Env) variantRows(seed int, variants []core.Options, row func(o core.Options, ix *core.Index, iva EngineStats) []string) ([][]string, error) {
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return nil, err
	}
	qs, warm := e.Queries(3, 10, queryCount, seed)
	var rows [][]string
	for _, o := range variants {
		ix, err := e.BuildIVA(o)
		if err != nil {
			return nil, err
		}
		iva, err := measure(ivaOn(ix), qs, warm, 1, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row(o, ix, iva))
	}
	return rows, nil
}

// ExpFig14 reproduces Fig. 14: iVA query time vs. relative vector length α.
func ExpFig14(e *Env) (r Result, err error) {
	r = Result{
		Name:   "fig14",
		Title:  "Fig. 14: effect of relative vector length alpha on iVA query time (model ms)",
		Header: []string{"alpha", "iVA total", "index MB"},
		Notes:  []string{"Paper: query time is U-shaped in alpha with the best value around 20%."},
	}
	r.Rows, err = e.variantRows(14, alphaVariants(), func(o core.Options, ix *core.Index, iva EngineStats) []string {
		return []string{pct(o.Alpha), f1(iva.TotalModelMS), f1(float64(ix.SizeBytes()) / 1e6)}
	})
	return r, err
}

// ExpFig15 reproduces Fig. 15: filter/refine split vs. α.
func ExpFig15(e *Env) (r Result, err error) {
	r = Result{
		Name:  "fig15",
		Title: "Fig. 15: iVA filtering and refining time vs. alpha (model ms)",
		Header: []string{"alpha", "filter", "refine",
			"filter pages", "table accesses"},
		Notes: []string{"Paper: filtering time keeps growing with longer vectors while refining time drops steadily."},
	}
	r.Rows, err = e.variantRows(15, alphaVariants(), func(o core.Options, _ *core.Index, iva EngineStats) []string {
		return []string{pct(o.Alpha), f1(iva.FilterModelMS), f1(iva.RefineModelMS),
			f1(iva.MeanFilterPages), f1(iva.MeanTableAccesses)}
	})
	return r, err
}

// ExpFig16 reproduces Fig. 16's claim where it still applies. The paper's
// query time grows with n because its nG-signature's bound loosens with n,
// and the engine's element forms no gram, so the figure reads the bounds on
// ablate-signature's generator pairs at α = 20%: per n, the mean edit
// distance, est' (Eq. 1), the reference signature's (Eq. 3), the histogram's.
func ExpFig16(e *Env) (Result, error) {
	r := Result{
		Name:   "fig16",
		Title:  "Fig. 16: effect of n-gram length on the text bound (generator pairs, alpha = 20%)",
		Header: []string{"n", "ed", "est'", "signature", "histogram"},
		Notes: []string{
			"Paper: average query time keeps growing with n; n = 2 is the good choice for short text. The signature's bound must fall with n.",
			"The histogram forms no gram: n only adds bits to its width, which alpha already sets.",
		},
	}
	pairs, edMean := drawPairs(generatorPair(e, rand.New(rand.NewSource(sigPairSeed))))
	for n := 2; n <= 5; n++ {
		codec, err := signature.NewCodec(n, alpha)
		if err != nil {
			return r, err
		}
		var prime, sig, hist float64
		for _, p := range pairs {
			prime += estPrime(p.sq, p.sd, n)
			sig += ngEst(codec, p.sq, ngEncode(codec, p.sd), len(p.sd))
			hist += codec.NewQueryString(p.sq).Est(codec.Encode(p.sd))
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(n), f2(edMean),
			f2(prime / sigPairs), f2(sig / sigPairs), f2(hist / sigPairs)})
	}
	return r, nil
}
