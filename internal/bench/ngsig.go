package bench

import (
	"hash/fnv"
	"math"
	"math/rand/v2"

	"github.com/sparsewide/iva/internal/signature"
)

// The paper's nG-signature (§III-B), the reference ablate-signature measures
// the engine's text element against: cH[l,t](s) is the OR of h[l,t](ω) over
// the n-grams ω of s, h[l,t] hashing a gram to t of l bits, and Eq. 3 turns
// the query grams that hit it into an edit-distance bound. ngParams returns
// the (l, t) a strLen-byte data string is hashed with: l is the engine's cH
// width, so both bounds are read at equal bits, and t minimizes Eq. 5.
func ngParams(c *signature.Codec, strLen int) (l, t int) {
	l = c.SigBits(strLen)
	return l, optimalT(strLen+c.N()-1, l)
}

// ngEncode returns cH[l,t](s).
func ngEncode(c *signature.Codec, s string) []uint64 {
	l, t := ngParams(c, len(s))
	h := make([]uint64, (l+63)/64)
	for _, g := range grams(s, c.N()) {
		orMask(h, fnv64(g), l, t)
	}
	return h
}

// ngEst returns est(sq, c(sd)) (Eq. 3) for the signature h of an sdLen-byte
// data string: Eq. 1 over the hit-gram count |hg(sq, c(sd))| (Def. 3.3), the
// query grams whose mask is set in h.
func ngEst(c *signature.Codec, sq string, h []uint64, sdLen int) float64 {
	l, t := ngParams(c, sdLen)
	hits := 0
	for g, a := range newGramSet(sq, c.N()) {
		m := make([]uint64, len(h))
		orMask(m, fnv64(g), l, t)
		if maskSubset(m, h) {
			hits += a
		}
	}
	return estFromCommon(len(sq), sdLen, hits, c.N())
}

// optimalT returns the t ∈ [1, l−1] minimizing expectedError(m, l, t).
func optimalT(m, l int) int {
	best := 1
	for cand := 2; cand < l; cand++ {
		if expectedError(m, l, cand) < expectedError(m, l, best) {
			best = cand
		}
	}
	return best
}

// expectedError evaluates ê = (1−(1−t/l)^m)^t (Eq. 5): the expected relative
// error of est against est' caused by false hits.
func expectedError(m, l, t int) float64 {
	return math.Pow(1-math.Pow(1-float64(t)/float64(l), float64(m)), float64(t))
}

// orMask ORs h[l,t] of the gram hashed to seed into dst: t distinct
// positions of l drawn by a PCG stream seeded with the gram's hash (t < l).
func orMask(dst []uint64, seed uint64, l, t int) {
	for _, pos := range rand.New(rand.NewPCG(seed, 0)).Perm(l)[:t] {
		dst[pos/64] |= 1 << (63 - pos%64)
	}
}

// fnv64 is FNV-1a over the gram bytes.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
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
