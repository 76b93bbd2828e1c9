// Package vaq implements the iVA-file's approximation code for numerical
// values (§III-C). The classic VA-file truncates a value's low bits, slicing
// the attribute's *absolute* domain (e.g. all 32-bit integers) into equal
// cells; because real values cluster in a tiny sub-range, most of those
// cells are empty and the code barely discriminates. The paper instead
// slices the *relative* domain — the [min, max] range actually observed on
// the attribute — giving the same code length far more resolution.
//
// A code identifies the slice its value falls in, so the minimum possible
// distance between a data value and a query value is computable from the
// code alone and lower-bounds the true distance (no false negatives).
// Values inserted outside the current relative domain are encoded with the
// nearest slice, which keeps the lower-bound property; the periodic rebuild
// re-derives the domain (§III-C, §IV-B).
package vaq

import (
	"fmt"
	"math"
)

// Quantizer maps numeric values of one attribute to fixed-width slice codes
// over the attribute's relative domain.
type Quantizer struct {
	min, max float64
	bits     int    // code width in bits
	slices   uint64 // number of usable slices
	ndf      uint64 // reserved code for ndf (Type IV lists), = 1<<bits - 1
}

// NDFReserved reports the code reserved for ndf cells in Type IV lists.
func (q *Quantizer) NDFReserved() uint64 { return q.ndf }

// New returns a quantizer of `bits`-wide codes over the relative domain
// [min, max]. bits must be in [1, 63]; min may equal max (single-value
// domains degrade to one slice). The top code (all ones) is reserved for
// ndf, leaving 2^bits−1 usable slices.
func New(min, max float64, bits int) (*Quantizer, error) {
	if bits < 1 || bits > 63 {
		return nil, fmt.Errorf("vaq: bits = %d, want in [1,63]", bits)
	}
	if math.IsNaN(min) || math.IsNaN(max) || math.IsInf(min, 0) || math.IsInf(max, 0) || min > max {
		return nil, fmt.Errorf("vaq: invalid domain [%v,%v]", min, max)
	}
	ndf := uint64(1)<<uint(bits) - 1
	slices := ndf // codes 0 .. ndf-1 are data slices
	if slices == 0 {
		slices = 1
	}
	return &Quantizer{min: min, max: max, bits: bits, slices: slices, ndf: ndf}, nil
}

// Bits returns the code width.
func (q *Quantizer) Bits() int { return q.bits }

// Domain returns the relative domain the quantizer was built over.
func (q *Quantizer) Domain() (min, max float64) { return q.min, q.max }

func (q *Quantizer) width() float64 {
	w := (q.max - q.min) / float64(q.slices)
	if w <= 0 {
		return 0
	}
	return w
}

// Encode returns the slice code of v. Values outside the relative domain
// clamp to the nearest slice (the paper's rule for post-build inserts).
func (q *Quantizer) Encode(v float64) uint64 {
	w := q.width()
	if w == 0 || math.IsNaN(v) {
		// NaN is rejected at the model layer; mapping it to slice 0 here
		// keeps the float→uint conversion defined for hostile inputs.
		return 0
	}
	if v <= q.min {
		return 0
	}
	if v >= q.max {
		return q.slices - 1
	}
	c := uint64((v - q.min) / w)
	if c >= q.slices {
		c = q.slices - 1
	}
	return c
}

// SliceBounds returns the value range [lo, hi] covered by code c. The last
// slice extends to +Inf and the first to −Inf, reflecting the clamping rule
// so that lower bounds stay valid for out-of-domain data values.
func (q *Quantizer) SliceBounds(c uint64) (lo, hi float64) {
	w := q.width()
	if w == 0 {
		return math.Inf(-1), math.Inf(1)
	}
	lo = q.min + float64(c)*w
	hi = q.min + float64(c+1)*w
	if c == 0 {
		lo = math.Inf(-1)
	}
	if c == q.slices-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// MinDist returns the minimum possible |query − value| for any value whose
// code is c: zero when the query falls inside the slice, otherwise the
// distance to the nearest slice edge. This is the filter-step lower bound.
func (q *Quantizer) MinDist(query float64, c uint64) float64 {
	lo, hi := q.SliceBounds(c)
	switch {
	case query < lo:
		return lo - query
	case query > hi:
		return query - hi
	default:
		return 0
	}
}

// MaxDist returns the maximum possible |query − value| for any value whose
// code is c: the distance to the farthest slice edge. Edge slices are
// unbounded (clamped out-of-domain values land there), so their upper bound
// is +Inf. The VA-file's sequential query plan needs this upper bound; the
// iVA-file's parallel plan does not (§IV-A), but the plan ablation uses it.
func (q *Quantizer) MaxDist(query float64, c uint64) float64 {
	lo, hi := q.SliceBounds(c)
	d1 := math.Abs(query - lo)
	d2 := math.Abs(query - hi)
	if d1 > d2 {
		return d1
	}
	return d2
}
