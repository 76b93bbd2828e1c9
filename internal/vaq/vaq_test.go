package vaq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t testing.TB, min, max float64, bits int) *Quantizer {
	t.Helper()
	q, err := New(min, max, bits)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := New(0, 1, 64); err == nil {
		t.Error("bits=64 accepted")
	}
	if _, err := New(2, 1, 8); err == nil {
		t.Error("min>max accepted")
	}
	if _, err := New(math.NaN(), 1, 8); err == nil {
		t.Error("NaN domain accepted")
	}
	if _, err := New(5, 5, 8); err != nil {
		t.Errorf("degenerate domain rejected: %v", err)
	}
}

func TestNDFReservedCode(t *testing.T) {
	q := mustNew(t, 0, 100, 4)
	if q.NDFReserved() != 15 {
		t.Fatalf("ndf code = %d, want 15", q.NDFReserved())
	}
	if q.slices != 15 {
		t.Fatalf("slices = %d, want 15", q.slices)
	}
	// No in-domain value may encode to the ndf code.
	for v := -10.0; v <= 110; v += 0.5 {
		if q.Encode(v) == q.NDFReserved() {
			t.Fatalf("Encode(%v) produced the reserved ndf code", v)
		}
	}
}

func TestEncodeClamping(t *testing.T) {
	q := mustNew(t, 0, 100, 4)
	if q.Encode(-50) != 0 {
		t.Fatal("below-domain value did not clamp to slice 0")
	}
	if q.Encode(1e9) != q.slices-1 {
		t.Fatal("above-domain value did not clamp to top slice")
	}
}

func TestEncodeMonotone(t *testing.T) {
	q := mustNew(t, -10, 10, 6)
	prev := uint64(0)
	for v := -12.0; v <= 12; v += 0.01 {
		c := q.Encode(v)
		if c < prev {
			t.Fatalf("Encode not monotone at %v: %d < %d", v, c, prev)
		}
		prev = c
	}
}

func TestMinDistLowerBound(t *testing.T) {
	// Core no-false-negative property: MinDist(q, Encode(v)) <= |q - v|,
	// including out-of-domain v (clamped codes).
	rng := rand.New(rand.NewSource(9))
	for _, bits := range []int{2, 4, 8, 16} {
		q := mustNew(t, -100, 300, bits)
		for trial := 0; trial < 5000; trial++ {
			v := rng.Float64()*600 - 200 // may fall outside the domain
			query := rng.Float64()*600 - 200
			c := q.Encode(v)
			lb := q.MinDist(query, c)
			actual := math.Abs(query - v)
			if lb > actual+1e-9 {
				t.Fatalf("bits=%d: MinDist(%v, code(%v)) = %v > |q-v| = %v",
					bits, query, v, lb, actual)
			}
		}
	}
}

func TestMinDistInsideSliceIsZero(t *testing.T) {
	q := mustNew(t, 0, 150, 4) // 15 slices of width 10
	c := q.Encode(42)
	if d := q.MinDist(45, c); d != 0 {
		t.Fatalf("MinDist inside slice = %v, want 0", d)
	}
}

func TestMinDistOutsideSlice(t *testing.T) {
	q := mustNew(t, 0, 150, 4) // width 10: slice 4 covers [40,50)
	c := q.Encode(42)
	if c != 4 {
		t.Fatalf("Encode(42) = %d, want 4", c)
	}
	if d := q.MinDist(75, c); math.Abs(d-25) > 1e-9 {
		t.Fatalf("MinDist(75, slice4) = %v, want 25", d)
	}
	if d := q.MinDist(12, c); math.Abs(d-28) > 1e-9 {
		t.Fatalf("MinDist(12, slice4) = %v, want 28", d)
	}
}

func TestSliceBoundsOpenEnds(t *testing.T) {
	q := mustNew(t, 0, 100, 3) // 7 slices
	lo, _ := q.SliceBounds(0)
	if !math.IsInf(lo, -1) {
		t.Fatalf("slice 0 lo = %v, want -Inf", lo)
	}
	_, hi := q.SliceBounds(q.slices - 1)
	if !math.IsInf(hi, 1) {
		t.Fatalf("top slice hi = %v, want +Inf", hi)
	}
}

func TestDegenerateDomain(t *testing.T) {
	q := mustNew(t, 7, 7, 8)
	if q.Encode(7) != 0 || q.Encode(100) != 0 {
		t.Fatal("degenerate domain must encode everything to slice 0")
	}
	if d := q.MinDist(3, 0); d != 0 {
		t.Fatalf("degenerate MinDist = %v, want 0 (no information)", d)
	}
}

func TestQuickLowerBound(t *testing.T) {
	q := mustNew(t, -1000, 1000, 10)
	f := func(v, query float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(query) || math.IsInf(query, 0) {
			return true
		}
		c := q.Encode(v)
		return q.MinDist(query, c) <= math.Abs(query-v)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeBeatsAbsoluteResolution(t *testing.T) {
	// The paper's motivation for relative domains: with values clustered in
	// [0, 1000] inside a 32-bit absolute domain, the relative quantizer
	// discriminates and the absolute one does not.
	rel := mustNew(t, 0, 1000, 8)
	abs := mustNew(t, math.MinInt32, math.MaxInt32, 8)
	a, b := 100.0, 900.0
	if rel.Encode(a) == rel.Encode(b) {
		t.Fatal("relative quantizer cannot distinguish 100 from 900")
	}
	if abs.Encode(a) != abs.Encode(b) {
		t.Fatal("absolute quantizer unexpectedly distinguishes them (test premise broken)")
	}
	// And the relative lower bound is correspondingly tighter.
	if rel.MinDist(a, rel.Encode(b)) <= abs.MinDist(a, abs.Encode(b)) {
		t.Fatal("relative lower bound not tighter than absolute")
	}
}

func TestMaxDistUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := mustNew(t, -50, 250, 6)
	for trial := 0; trial < 5000; trial++ {
		v := rng.Float64()*300 - 50 // in-domain values only
		query := rng.Float64()*400 - 100
		c := q.Encode(v)
		ub := q.MaxDist(query, c)
		if actual := math.Abs(query - v); ub < actual-1e-9 {
			t.Fatalf("MaxDist(%v, code(%v)) = %v < |q-v| = %v", query, v, ub, actual)
		}
	}
	// Edge slices are unbounded.
	if ub := q.MaxDist(0, 0); !math.IsInf(ub, 1) {
		t.Fatalf("edge slice upper bound = %v, want +Inf", ub)
	}
}

func BenchmarkEncode(b *testing.B) {
	q := mustNew(b, 0, 1e6, 16)
	for i := 0; i < b.N; i++ {
		q.Encode(float64(i % 1000000))
	}
}

func BenchmarkMinDist(b *testing.B) {
	q := mustNew(b, 0, 1e6, 16)
	c := q.Encode(123456)
	for i := 0; i < b.N; i++ {
		q.MinDist(float64(i%1000000), c)
	}
}
