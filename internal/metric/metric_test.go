package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sparsewide/iva/internal/model"
)

func TestCombinersKnownValues(t *testing.T) {
	w := []float64{3, 4}
	if got := (L1{}).Combine(w); got != 7 {
		t.Errorf("L1 = %v", got)
	}
	if got := (L2{}).Combine(w); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %v", got)
	}
	if got := (LInf{}).Combine(w); got != 4 {
		t.Errorf("Linf = %v", got)
	}
}

func TestCombinersEmpty(t *testing.T) {
	for _, c := range []Combiner{L1{}, L2{}, LInf{}} {
		if got := c.Combine(nil); got != 0 {
			t.Errorf("%s(nil) = %v", c.Name(), got)
		}
	}
}

// TestMonotonousProperty verifies Property 3.1 for all three combiners:
// increasing any per-attribute difference never decreases the distance.
func TestMonotonousProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []Combiner{L1{}, L2{}, LInf{}} {
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(6)
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = rng.Float64() * 50
				b[i] = a[i] + rng.Float64()*20 // b >= a component-wise
			}
			if c.Combine(b) < c.Combine(a)-1e-9 {
				t.Fatalf("%s violates monotonicity: f(%v)=%v < f(%v)=%v",
					c.Name(), b, c.Combine(b), a, c.Combine(a))
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"L1", "L2", "Linf"} {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%s) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("L3"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestITFWeights(t *testing.T) {
	df := map[model.AttrID]int64{0: 999, 1: 9}
	w := NewITF(func() int64 { return 999 }, func(a model.AttrID) int64 { return df[a] })
	// Attribute defined everywhere: ln(1000/1000) = 0.
	if got := w.Weight(0); math.Abs(got) > 1e-12 {
		t.Errorf("ubiquitous attr weight = %v, want 0", got)
	}
	// Rare attribute: ln(1000/10) = ln(100).
	if got := w.Weight(1); math.Abs(got-math.Log(100)) > 1e-12 {
		t.Errorf("rare attr weight = %v, want ln(100)", got)
	}
	if w.Weight(1) <= w.Weight(0) {
		t.Error("rarer attribute must weigh more")
	}
}

func TestMetricDistanceAndTermWeight(t *testing.T) {
	m := Default()
	terms := []model.QueryTerm{
		{Attr: 0, Kind: model.KindNumeric},
		{Attr: 1, Kind: model.KindText, Weight: 2},
	}
	// diffs (3,4); weights (1,2) -> weighted (3,8) -> L2 = sqrt(73).
	got := m.Distance(terms, []float64{3, 4})
	if math.Abs(got-math.Sqrt(73)) > 1e-12 {
		t.Fatalf("Distance = %v", got)
	}
	if m.Name() != "EQU+L2" {
		t.Fatalf("Name = %s", m.Name())
	}
}

// TestTermDiffAllocs pins the exact difference of a text term at zero
// allocations: TermDiff's 2 KiB edit-distance pattern stays on its stack,
// for the DST baseline and the oracle's reference, which call it per tuple
// and term. It holds the answer to the edit distance too.
func TestTermDiffAllocs(t *testing.T) {
	m := Default()
	term := model.QueryTerm{Attr: 3, Kind: model.KindText, Str: "Canon EOS"}
	tp := model.NewTuple(1)
	tp.Set(3, model.Text("Cannon EOS 450D", "Nikon"))
	var d float64
	if n := testing.AllocsPerRun(100, func() { d = m.TermDiff(term, tp) }); n != 0 {
		t.Fatalf("TermDiff on a text term allocates %v times per call", n)
	}
	if d != 6 {
		t.Fatalf("TermDiff = %v, want 6", d)
	}
}

// TestLowerBoundPreservation is the property the whole filter step rests on:
// if every diff lower-bounds the true diff, the combined distance
// lower-bounds the true distance.
func TestLowerBoundPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		lo := make([]float64, n)
		hi := make([]float64, n)
		terms := make([]model.QueryTerm, n)
		for i := range lo {
			hi[i] = rng.Float64() * 100
			lo[i] = hi[i] * rng.Float64()
			terms[i] = model.QueryTerm{Attr: model.AttrID(i)}
		}
		for _, c := range []Combiner{L1{}, L2{}, LInf{}} {
			m := New(c, Equal{})
			if m.Distance(terms, lo) > m.Distance(terms, hi)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// sumSquares is a combiner CombineColumns does not know: it must be called
// row by row.
type sumSquares struct{}

func (sumSquares) Combine(w []float64) float64 {
	sum := 0.0
	for _, d := range w {
		sum += d * d
	}
	return sum
}
func (sumSquares) Name() string { return "sumsq" }

// TestCombineColumnsBitIdentical holds CombineColumns to the bits of Combine
// on each row — the code the filter called per tuple before it combined per
// column — for the three built-in combiners and a custom one, under equal,
// ITF and explicit weights, over columns that mix zeros, the ndf penalty,
// values of very different magnitudes and +Inf, at every query width the
// batch loop sees and past the stack buffer of Distance.
func TestCombineColumnsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// Attributes from 17 up are defined everywhere: λ = 0, and 0·Inf is NaN.
	itf := NewITF(func() int64 { return 10000 }, func(a model.AttrID) int64 { return min(10000, 1+37*int64(a)*int64(a)) })
	values := []func() float64{
		func() float64 { return 0 },
		func() float64 { return DefaultNDFPenalty },
		func() float64 { return math.Inf(1) },
		func() float64 { return float64(rng.Intn(30)) },
		func() float64 { return rng.ExpFloat64() * 1e-7 },
		func() float64 { return rng.Float64() * 1e9 },
		func() float64 { return math.Abs(rng.NormFloat64()) * 3.3 },
	}
	for _, comb := range []Combiner{L1{}, L2{}, LInf{}, sumSquares{}} {
		for _, weighter := range []Weighter{Equal{}, itf} {
			m := New(comb, weighter)
			for nterms := 1; nterms <= stackTerms+3; nterms++ {
				terms := make([]model.QueryTerm, nterms)
				for i := range terms {
					terms[i].Attr = model.AttrID(rng.Intn(40))
					if rng.Intn(4) == 0 {
						terms[i].Weight = 0.5 + 2*rng.Float64()
					}
				}
				weights := m.Weights(terms)
				for _, n := range []int{0, 1, 7, 512} {
					cols := make([][]float64, nterms)
					for i := range cols {
						cols[i] = make([]float64, n)
						for j := range cols[i] {
							cols[i][j] = values[rng.Intn(len(values))]()
						}
					}
					est := make([]float64, n)
					for j := range est {
						est[j] = rng.Float64() // stale content must not leak in
					}
					m.CombineColumns(cols, weights, est)
					row := make([]float64, nterms)
					for j := range est {
						for i := range row {
							row[i] = cols[i][j] * weights[i]
						}
						if want := m.Combine(row); math.Float64bits(est[j]) != math.Float64bits(want) {
							t.Fatalf("%s, %d terms, entry %d of %d: CombineColumns %v (%#x), Combine %v (%#x)",
								m.Name(), nterms, j, n, est[j], math.Float64bits(est[j]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
