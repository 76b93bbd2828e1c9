// Package metric implements the similarity-distance side of §III-A: the
// per-attribute differences d[A](T,Q), importance weights λ, and the
// monotone combining function f. The iVA-file is metric-oblivious — it only
// relies on f satisfying the monotonous property (Property 3.1: growing any
// per-attribute difference cannot shrink the distance) — so metrics are an
// interface and the paper's six evaluation settings ({EQU,ITF}×{L1,L2,L∞})
// are provided implementations.
package metric

import (
	"fmt"
	"math"

	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/model"
)

// DefaultNDFPenalty is the predefined constant difference between a defined
// query value and an undefined data value (the paper's example uses 20).
const DefaultNDFPenalty = 20.0

// Combiner is the monotone function f over the weighted per-attribute
// differences λi·di. Implementations must satisfy Property 3.1.
type Combiner interface {
	// Combine folds the weighted differences into a similarity distance.
	Combine(weighted []float64) float64
	// Name identifies the metric in experiment output.
	Name() string
}

// L1 is the weighted Manhattan metric: Σ λi·di.
type L1 struct{}

// Combine implements Combiner.
func (L1) Combine(w []float64) float64 {
	sum := 0.0
	for _, d := range w {
		sum += d
	}
	return sum
}

// Name implements Combiner.
func (L1) Name() string { return "L1" }

// L2 is the weighted Euclidean metric: sqrt(Σ (λi·di)²). This is the
// paper's default (Table I).
type L2 struct{}

// Combine implements Combiner.
func (L2) Combine(w []float64) float64 {
	sum := 0.0
	for _, d := range w {
		sum += float64(d * d) // the conversion forbids fusing into an FMA: one rounding everywhere
	}
	return math.Sqrt(sum)
}

// Name implements Combiner.
func (L2) Name() string { return "L2" }

// LInf is the weighted Chebyshev metric: max λi·di.
type LInf struct{}

// Combine implements Combiner.
func (LInf) Combine(w []float64) float64 {
	m := 0.0
	for _, d := range w {
		if d > m {
			m = d
		}
	}
	return m
}

// Name implements Combiner.
func (LInf) Name() string { return "Linf" }

// ByName returns the combiner named "L1", "L2" or "Linf".
func ByName(name string) (Combiner, error) {
	switch name {
	case "L1":
		return L1{}, nil
	case "L2":
		return L2{}, nil
	case "Linf", "L∞":
		return LInf{}, nil
	default:
		return nil, fmt.Errorf("metric: unknown combiner %q", name)
	}
}

// Weighter assigns the importance weight λ of an attribute.
type Weighter interface {
	Weight(a model.AttrID) float64
	Name() string
}

// Equal weights every attribute 1 (the paper's EQU setting).
type Equal struct{}

// Weight implements Weighter.
func (Equal) Weight(model.AttrID) float64 { return 1 }

// Name implements Weighter.
func (Equal) Name() string { return "EQU" }

// ITF is the inverse-tuple-frequency weighting of §V-B.3:
//
//	λ(A) = ln((1+|T|)/(1+|T|_A))
//
// where |T|_A is the number of tuples defining A. Attributes defined
// everywhere weigh ~0; rare attributes weigh more.
type ITF struct {
	total func() int64
	df    func(model.AttrID) int64
}

// NewITF builds an ITF weighter from a live-tuple-count source and a
// per-attribute df lookup (typically backed by the table and its catalog).
// Both are functions so the weights track inserts and deletes.
func NewITF(total func() int64, df func(model.AttrID) int64) *ITF {
	return &ITF{total: total, df: df}
}

// Weight implements Weighter.
func (w *ITF) Weight(a model.AttrID) float64 {
	return math.Log(float64(1+w.total()) / float64(1+w.df(a)))
}

// Name implements Weighter.
func (w *ITF) Name() string { return "ITF" }

// Metric bundles a combiner, a weighter and the ndf penalty into the
// D(T,Q) evaluator used by both the filter and refine steps.
type Metric struct {
	Combiner   Combiner
	Weighter   Weighter
	NDFPenalty float64
}

// New returns a metric with the default ndf penalty.
func New(c Combiner, w Weighter) *Metric {
	return &Metric{Combiner: c, Weighter: w, NDFPenalty: DefaultNDFPenalty}
}

// Default returns the paper's Table I setting: Euclidean with equal weights.
func Default() *Metric { return New(L2{}, Equal{}) }

// Combine folds weighted differences λi·di into the similarity distance. The
// built-in combiners are called by their concrete type so that a caller's
// stack buffer stays on the stack; an unknown combiner may keep its argument,
// so it gets a copy.
func (m *Metric) Combine(weighted []float64) float64 {
	switch c := m.Combiner.(type) {
	case L1:
		return c.Combine(weighted)
	case L2:
		return c.Combine(weighted)
	case LInf:
		return c.Combine(weighted)
	}
	return m.Combiner.Combine(append([]float64(nil), weighted...))
}

// CombineColumns is Combine over a batch held column-wise: cols[i][j] is term
// i's raw difference for entry j, weights[i] its λ, est[j] receives entry j's
// distance. A built-in combiner runs one loop per column applying to est[j]
// the operations Combine applies to its accumulator, in term order, so est[j]
// has the bits of Combine({weights[i]·cols[i][j]}); others go row by row.
func (m *Metric) CombineColumns(cols [][]float64, weights, est []float64) {
	clear(est)
	switch m.Combiner.(type) {
	case L1:
		for i, col := range cols {
			w := weights[i]
			for j := range est {
				est[j] += float64(w * col[j])
			}
		}
	case L2:
		for i, col := range cols {
			w := weights[i]
			for j := range est {
				d := w * col[j]
				est[j] += float64(d * d)
			}
		}
		for j, sum := range est {
			est[j] = math.Sqrt(sum)
		}
	case LInf:
		for i, col := range cols {
			w := weights[i]
			for j := range est {
				if d := w * col[j]; d > est[j] {
					est[j] = d
				}
			}
		}
	default:
		row := make([]float64, len(cols))
		for j := range est {
			for i, col := range cols {
				row[i] = weights[i] * col[j]
			}
			est[j] = m.Combine(row)
		}
	}
}

// stackTerms is the query width up to which Distance and its callers need no
// heap buffer.
const stackTerms = 8

// Distance combines raw per-attribute differences (parallel to terms) into
// the similarity distance, applying term or scheme weights.
func (m *Metric) Distance(terms []model.QueryTerm, diffs []float64) float64 {
	var buf [stackTerms]float64
	weighted := buf[:0]
	for i, d := range diffs {
		weighted = append(weighted, m.TermWeight(terms[i])*d)
	}
	return m.Combine(weighted)
}

// Weights resolves the λ of every query term once, so a search weighs each
// tuple's differences itself (for Combine) without going back through the
// Weighter — ITF takes a logarithm per call.
func (m *Metric) Weights(terms []model.QueryTerm) []float64 {
	w := make([]float64, len(terms))
	for i, t := range terms {
		w[i] = m.TermWeight(t)
	}
	return w
}

// TermWeight resolves the λ of one query term: an explicit positive term
// weight wins, otherwise the weighting scheme applies.
func (m *Metric) TermWeight(t model.QueryTerm) float64 {
	if t.Weight > 0 {
		return t.Weight
	}
	return m.Weighter.Weight(t.Attr)
}

// Name returns a label like "EQU+L2" matching the paper's S1..S6 naming.
func (m *Metric) Name() string {
	return m.Weighter.Name() + "+" + m.Combiner.Name()
}

// TermExact is one query term prepared for exact differences d[A](T,Q) of
// §III-A: |Δ| for a number, the smallest edit distance to any data string for
// text. TermDiff evaluates decoded tuples through it and the engine's refine
// evaluates record bytes through it, so the two cannot drift.
type TermExact struct {
	Term model.QueryTerm
	pat  gram.Pattern
}

// Set prepares x for term. It is a method on a value so that TermDiff keeps
// the pattern on its stack.
func (x *TermExact) Set(term model.QueryTerm) {
	x.Term = term
	if term.Kind == model.KindText {
		x.pat.Set(term.Str)
	}
}

// Num is the difference to a numeric value.
func (x *TermExact) Num(v float64) float64 { return numDiff(x.Term.Num, v) }

func numDiff(q, v float64) float64 { return math.Abs(q - v) }

// Str and StrBytes lower best to the edit distance to one more data string
// of a text value; start from +Inf.
func (x *TermExact) Str(best float64, s string) float64 {
	return math.Min(best, float64(x.pat.Distance(s)))
}

// StrBytes is Str over record bytes.
func (x *TermExact) StrBytes(best float64, s []byte) float64 {
	return math.Min(best, float64(x.pat.DistanceBytes(s)))
}

// TermDiff computes the exact per-attribute difference d[A](T,Q) of §III-A
// for one query term against a fetched tuple: the smallest edit distance to
// any data string for text, |Δ| for numeric, and the ndf penalty when the
// tuple does not define the attribute or defines it with the other kind.
func (m *Metric) TermDiff(term model.QueryTerm, tp *model.Tuple) float64 {
	if v, ok := tp.Get(term.Attr); !ok || v.Kind != term.Kind {
		return m.NDFPenalty
	}
	var x TermExact
	x.Set(term)
	return x.Diff(tp, m.NDFPenalty)
}

// Diff is TermDiff through x's prepared pattern: a caller that sets one
// TermExact per term evaluates every tuple without allocating, where TermDiff
// prepares (and allocates) afresh per call.
func (x *TermExact) Diff(tp *model.Tuple, ndf float64) float64 {
	v, ok := tp.Get(x.Term.Attr)
	if !ok || v.Kind != x.Term.Kind {
		return ndf
	}
	if v.Kind == model.KindNumeric {
		return x.Num(v.Num)
	}
	best := math.Inf(1)
	for _, s := range v.Strs {
		best = x.Str(best, s)
	}
	return best
}

// TupleDistance evaluates the exact similarity distance D(T,Q) of a decoded
// tuple, as the DST baseline and the oracle's reference do.
func (m *Metric) TupleDistance(q *model.Query, tp *model.Tuple) float64 {
	var buf [stackTerms]float64
	diffs := buf[:0]
	for _, term := range q.Terms {
		diffs = append(diffs, m.TermDiff(term, tp))
	}
	return m.Distance(q.Terms, diffs)
}

// AllNDFDistance returns the distance of a tuple that defines none of the
// query's attributes: every difference is the ndf penalty. It is exact
// without fetching the tuple, which the SII baseline exploits.
func (m *Metric) AllNDFDistance(q *model.Query) float64 {
	var buf [stackTerms]float64
	diffs := buf[:0]
	for range q.Terms {
		diffs = append(diffs, m.NDFPenalty)
	}
	return m.Distance(q.Terms, diffs)
}
