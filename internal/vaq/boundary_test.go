package vaq

import (
	"math"
	"math/rand"
	"testing"
)

// TestEncodeCellEdges pins down which slice a value exactly on a cell edge
// lands in, and that the lower bound stays exact there: a value encodes to a
// slice whose bounds contain it, so MinDist(v, Encode(v)) is always zero —
// including at v == min, v == max and every interior edge.
func TestEncodeCellEdges(t *testing.T) {
	q, err := New(0, 8, 3) // 7 data slices of width 8/7 over [0,8]
	if err != nil {
		t.Fatal(err)
	}
	if q.slices != 7 {
		t.Fatalf("slices = %d, want 7", q.slices)
	}
	w := 8.0 / 7.0
	for c := uint64(0); c < q.slices; c++ {
		edge := float64(c) * w
		code := q.Encode(edge)
		// An interior edge belongs to the upper slice (Encode is lower-
		// inclusive via v <= min and the integer truncation); either way the
		// lower-bound invariant must hold exactly.
		if d := q.MinDist(edge, code); d != 0 {
			t.Fatalf("MinDist(edge %v, Encode) = %v, want 0", edge, d)
		}
		lo, hi := q.SliceBounds(code)
		if edge < lo || edge > hi {
			t.Fatalf("edge %v encoded to slice %d with bounds [%v,%v]", edge, code, lo, hi)
		}
	}
	if q.Encode(0) != 0 {
		t.Fatalf("Encode(min) = %d, want 0", q.Encode(0))
	}
	if q.Encode(8) != q.slices-1 {
		t.Fatalf("Encode(max) = %d, want %d", q.Encode(8), q.slices-1)
	}
	// Out-of-domain values clamp to the edge slices, whose bounds are open
	// toward the clamped side — the lower bound must stay 0 for them.
	for _, v := range []float64{-1e9, -0.001, 8.001, 1e12} {
		if d := q.MinDist(v, q.Encode(v)); d != 0 {
			t.Fatalf("MinDist(%v, Encode) = %v, want 0 (clamped slice is unbounded)", v, d)
		}
	}
}

// TestDomainRejection checks New refuses non-finite and inverted domains.
func TestDomainRejection(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	bad := [][2]float64{
		{nan, 1}, {0, nan}, {nan, nan},
		{inf, inf}, {-inf, 0}, {0, inf}, {-inf, inf},
		{2, 1},
	}
	for _, d := range bad {
		if _, err := New(d[0], d[1], 8); err == nil {
			t.Errorf("New(%v, %v, 8) accepted an invalid domain", d[0], d[1])
		}
	}
	for _, bits := range []int{0, -1, 64, 100} {
		if _, err := New(0, 1, bits); err == nil {
			t.Errorf("New(0, 1, %d) accepted an invalid width", bits)
		}
	}
	// Degenerate single-value domain is legal and collapses to one slice
	// covering everything.
	q, err := New(5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c := q.Encode(123); c != 0 {
		t.Fatalf("degenerate Encode = %d, want 0", c)
	}
	if d := q.MinDist(-40, 0); d != 0 {
		t.Fatalf("degenerate MinDist = %v, want 0", d)
	}
}

// TestLowerBoundInvariant is the filter-correctness property on random
// domains, values and queries: for any data value v and query x,
// MinDist(x, Encode(v)) ≤ |x − v| (no false negatives), MinDist is
// non-negative, Encode never emits the reserved ndf code, and MaxDist is
// never below MinDist.
func TestLowerBoundInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7a0b))
	for trial := 0; trial < 200; trial++ {
		min := rng.NormFloat64() * 1000
		max := min + math.Abs(rng.NormFloat64())*1000
		bits := 1 + rng.Intn(12)
		q, err := New(min, max, bits)
		if err != nil {
			t.Fatal(err)
		}
		span := max - min
		for i := 0; i < 200; i++ {
			// Values mostly inside the domain, sometimes well outside.
			v := min + (rng.Float64()*1.5-0.25)*span
			x := min + (rng.Float64()*1.5-0.25)*span
			c := q.Encode(v)
			if c == q.NDFReserved() {
				t.Fatalf("trial %d: Encode(%v) produced the reserved ndf code %d", trial, v, c)
			}
			if c >= q.slices {
				t.Fatalf("trial %d: Encode(%v) = %d outside %d slices", trial, v, c, q.slices)
			}
			lb := q.MinDist(x, c)
			if lb < 0 || math.IsNaN(lb) {
				t.Fatalf("trial %d: MinDist(%v, %d) = %v", trial, x, c, lb)
			}
			if actual := math.Abs(x - v); lb > actual+1e-9*math.Abs(actual) {
				t.Fatalf("trial %d: MinDist(%v, Encode(%v)) = %v exceeds true distance %v (domain [%v,%v] bits %d)",
					trial, x, v, lb, actual, min, max, bits)
			}
			if ub := q.MaxDist(x, c); ub < lb {
				t.Fatalf("trial %d: MaxDist %v < MinDist %v", trial, ub, lb)
			}
		}
	}
}
