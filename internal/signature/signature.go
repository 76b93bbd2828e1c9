// Package signature implements the nG-signature of §III-B: the approximation
// vector that represents a data string in the iVA-file.
//
// A signature c(s) has two parts: the low bits cL(s) record the string
// length (one byte here; the table layer caps strings at 255 bytes), and the
// high bits cH[l,t](s) are the bitwise OR of h[l,t](ω) over all n-grams ω of
// s, where h[l,t] hashes a gram to an l-bit vector with exactly t one bits.
//
// Given a query string sq, the hit-gram count |hg(sq,c(sd))| (Def. 3.3)
// estimates the common-gram count, and Eq. 3 turns it into an edit-distance
// estimate that never exceeds the true edit distance (Prop. 3.3), so
// filtering with it produces no false negatives.
//
// The signature width follows the paper's relative-vector-length parameter:
// cH takes ⌈α·(|s|+n−1)⌉ bytes, and t is chosen per (m=|s|+n−1, l) to
// minimize the expected relative error ê = (1−(1−t/l)^m)^t (Eq. 5); the
// chosen values are memoized in an in-memory table, as §III-B.3 suggests.
package signature

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/sparsewide/iva/internal/gram"
)

// Sig is an encoded nG-signature. H packs the cH bits in the bitio word
// layout: stream bit i is bit 63−(i mod 64) of H[i/64].
type Sig struct {
	Len int      // string length in bytes (the cL part)
	H   []uint64 // cH[l,t] bits
}

// Codec encodes strings into nG-signatures for a fixed gram length n and
// relative vector length α.
type Codec struct {
	n     int
	alpha float64

	// The hash parameters per data-string length (§III-B.3's in-memory
	// table): bits is l, filled at construction — every signature a cursor
	// decodes asks for it — and ts the optimal t, zero until first use.
	// Strings in the table file are at most 255 bytes, so the table is total
	// for them and both Encode and QueryString.Hits read it without a lock.
	bits [maxLenPlans]uint32
	ts   [maxLenPlans]atomic.Uint32
}

// maxLenPlans is one more than the longest string length the cL byte holds.
const maxLenPlans = 1 << LenBits

// NewCodec returns a codec. n must be ≥ 1 and α in (0, 1].
func NewCodec(n int, alpha float64) (*Codec, error) {
	if n < 1 {
		return nil, fmt.Errorf("signature: n = %d, want >= 1", n)
	}
	if !(alpha > 0 && alpha <= 1) { // rejects NaN too
		return nil, fmt.Errorf("signature: alpha = %v, want in (0,1]", alpha)
	}
	c := &Codec{n: n, alpha: alpha}
	for strLen := range c.bits {
		c.bits[strLen] = uint32(c.sigBits(strLen))
	}
	return c, nil
}

// N returns the gram length.
func (c *Codec) N() int { return c.n }

// Alpha returns the relative vector length.
func (c *Codec) Alpha() float64 { return c.alpha }

// LenBits is the width of the cL length field.
const LenBits = 8

// SigBits returns the cH width in bits for a data string of the given byte
// length: 8·⌈α·(len+n−1)⌉, with a one-byte floor.
func (c *Codec) SigBits(strLen int) int {
	if uint(strLen) < maxLenPlans {
		return int(c.bits[strLen])
	}
	return c.sigBits(strLen)
}

func (c *Codec) sigBits(strLen int) int {
	m := strLen + c.n - 1
	b := int(math.Ceil(c.alpha * float64(m)))
	if b < 1 {
		b = 1
	}
	return 8 * b
}

// OptimalT returns the t ∈ [1, l−1] minimizing the expected relative error
// ê = (1−(1−t/l)^m)^t for m grams hashed into l bits.
func (c *Codec) OptimalT(m, l int) int {
	best, bestErr := 1, math.Inf(1)
	for cand := 1; cand < l; cand++ {
		e := ExpectedError(m, l, cand)
		if e < bestErr {
			best, bestErr = cand, e
		}
	}
	return best
}

// params returns the (l, t) every signature of a strLen-byte data string is
// hashed with: l = SigBits(strLen), t = OptimalT(strLen+n−1, l).
func (c *Codec) params(strLen int) (l, t int) {
	l = c.SigBits(strLen)
	if uint(strLen) >= maxLenPlans {
		return l, c.OptimalT(strLen+c.n-1, l)
	}
	if t = int(c.ts[strLen].Load()); t == 0 {
		t = c.OptimalT(strLen+c.n-1, l)
		c.ts[strLen].Store(uint32(t))
	}
	return l, t
}

// ExpectedError evaluates ê = (1−(1−t/l)^m)^t (Eq. 5): the expected relative
// error of est against est' caused by false hits.
func ExpectedError(m, l, t int) float64 {
	p := 1 - math.Pow(1-float64(t)/float64(l), float64(m))
	return math.Pow(p, float64(t))
}

// text is what Encode accepts: decoded strings, or the string bytes of a
// verified table record.
type text interface{ ~string | ~[]byte }

// Encode returns the nG-signature of data string s.
func (c *Codec) Encode(s string) Sig { return encode(c, nil, s) }

// EncodeBytes is Encode over string bytes, with the cH words taken from dst
// when it has room for them: a build encodes every string of a table through
// one buffer. The signature is bit-identical to Encode's.
func (c *Codec) EncodeBytes(dst []uint64, s []byte) Sig { return encode(c, dst, s) }

// encode hashes each n-gram window of the '#'/'$'-extended string in place
// (FNV-1a over the window's bytes) — no gram strings are materialised.
func encode[T text](c *Codec, dst []uint64, s T) Sig {
	l, t := c.params(len(s))
	nw := (l + 63) / 64
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	}
	h := dst[:nw]
	clear(h)
	pad := c.n - 1
	for i := 0; i < len(s)+pad; i++ { // window i covers extended bytes [i, i+n)
		seed := uint64(fnvOffset)
		for k := i - pad; k <= i; k++ { // k indexes s; outside it lies padding
			b := byte(gram.SuffixPad)
			if k < 0 {
				b = gram.PrefixPad
			} else if k < len(s) {
				b = s[k]
			}
			seed = (seed ^ uint64(b)) * fnvPrime
		}
		orMask(h, seed, l, t)
	}
	return Sig{Len: len(s), H: h}
}

// orMask ORs h[l,t] of the gram hashed to seed into dst: the first t distinct
// positions of the probe sequence splitmix64(seed+i) mod l, whatever dst
// already holds — the paper's plain OR, which is what ExpectedError models. A
// data string's signature and a query gram's mask are built by the same walk,
// so a gram of the data string always leaves its query mask set. t < l, so t
// distinct positions exist.
func orMask(dst []uint64, seed uint64, l, t int) {
	for i, set := uint64(0), 0; set < t; i++ {
		pos := splitmix64(seed+i) % uint64(l)
		dup := false
		for j := uint64(0); j < i && !dup; j++ {
			dup = splitmix64(seed+j)%uint64(l) == pos
		}
		if !dup {
			dst[pos/64] |= 1 << (63 - pos%64)
			set++
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 is FNV-1a over the gram bytes.
func fnv64(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// splitmix64 scrambles x into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// maskSubset reports whether every set bit of mask is set in sig
// (h[l,t](ω) AND cH == h[l,t](ω), Def. 3.1).
func maskSubset(mask, sig []uint64) bool {
	for i, m := range mask {
		if sig[i]&m != m {
			return false
		}
	}
	return true
}

// QueryString pre-processes a query string so that estimating against many
// signatures is cheap. Signatures of different data-string lengths use
// different (l,t) hash parameters, so the gram masks are kept per data length
// and filled lazily as the scan encounters a length. A filled slot is
// immutable and published atomically, so concurrent stripe workers estimate
// without a lock; two workers racing on an empty slot compute the same plan.
type QueryString struct {
	codec  *Codec
	str    string
	grams  []string // distinct grams of str
	counts []int    // occurrences, parallel to grams
	plans  [maxLenPlans]atomic.Pointer[lenPlan]
}

// lenPlan holds the query's gram masks under one data length's (l, t).
type lenPlan struct {
	nw    int      // words per mask, ⌈l/64⌉
	masks []uint64 // gram i's mask is masks[i·nw : (i+1)·nw]; nil when classes is set

	// classes replaces masks when every mask is one bit of one word (t = 1):
	// classes[c] holds the bits more than c query grams, with multiplicity,
	// hash to, so the hit count is one popcount per class.
	classes []uint64
}

// NewQueryString prepares sq for estimation under the codec.
func (c *Codec) NewQueryString(sq string) *QueryString {
	set := gram.NewSet(sq, c.n)
	q := &QueryString{codec: c, str: sq,
		grams: make([]string, 0, len(set)), counts: make([]int, 0, len(set))}
	for g, a := range set {
		q.grams = append(q.grams, g)
		q.counts = append(q.counts, a)
	}
	return q
}

// Str returns the query string.
func (q *QueryString) Str() string { return q.str }

func (q *QueryString) plan(strLen int) *lenPlan {
	cached := uint(strLen) < maxLenPlans
	if cached {
		if p := q.plans[strLen].Load(); p != nil {
			return p
		}
	}
	l, t := q.codec.params(strLen)
	p := &lenPlan{nw: (l + 63) / 64}
	if p.nw == 1 && t == 1 {
		p.classes = q.weightClasses(l)
	} else {
		p.masks = make([]uint64, len(q.grams)*p.nw)
		for i, g := range q.grams {
			orMask(p.masks[i*p.nw:(i+1)*p.nw], fnv64(g), l, t)
		}
	}
	if cached {
		q.plans[strLen].Store(p)
	}
	return p
}

// weightClasses builds lenPlan.classes for an l ≤ 64 bit signature hashed
// with t = 1: each gram's mask is one bit, and its count is that bit's weight.
func (q *QueryString) weightClasses(l int) []uint64 {
	var weight [64]int // by bit number of the word
	for i, g := range q.grams {
		var m [1]uint64
		orMask(m[:], fnv64(g), l, 1)
		weight[bits.TrailingZeros64(m[0])] += q.counts[i]
	}
	classes := make([]uint64, slices.Max(weight[:]))
	for b, w := range weight {
		for c := 0; c < w; c++ {
			classes[c] |= 1 << uint(b)
		}
	}
	return classes
}

// Hits returns |hg(sq, c(sd))|: the total count of query grams that hit the
// signature (Def. 3.3).
func (q *QueryString) Hits(sig Sig) int {
	p, hits, h := q.plan(sig.Len), 0, sig.H[0]
	if p.classes != nil {
		for _, c := range p.classes {
			hits += bits.OnesCount64(h & c)
		}
		return hits
	}
	if p.nw == 1 { // one word, one AND per gram, no branch: a hit is x == 0
		for i, m := range p.masks {
			x := h&m ^ m
			hits += q.counts[i] & (int((x|-x)>>63) - 1)
		}
		return hits
	}
	for i, a := range q.counts {
		if maskSubset(p.masks[i*p.nw:(i+1)*p.nw], sig.H) {
			hits += a
		}
	}
	return hits
}

// Est returns est(sq, c(sd)) (Eq. 3): a lower bound of ed(sq, sd).
func (q *QueryString) Est(sig Sig) float64 {
	return gram.EstFromCommon(len(q.str), sig.Len, q.Hits(sig), q.codec.n)
}
