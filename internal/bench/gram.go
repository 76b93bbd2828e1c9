package bench

import "strings"

// The paper's n-gram machinery (§III-B.1), which only the reference
// nG-signature (ngsig.go) and Fig. 16 still use: n-gram extraction with
// '#'/'$' padding, positional n-gram multisets, and the common-gram-set
// lower bound est' of Gravano et al. (Eq. 1–2).

// prefixPad and suffixPad are the two symbols outside the text alphabet used
// to extend a string before extracting its n-grams.
const (
	prefixPad = "#"
	suffixPad = "$"
)

// grams returns all n-grams of s in order (n ≥ 1): the string is extended
// with n−1 prefixPad bytes and n−1 suffixPad bytes, and every window of n
// consecutive bytes of the extension is one gram. A string of length m has
// m+n−1 grams.
func grams(s string, n int) []string {
	ext := strings.Repeat(prefixPad, n-1) + s + strings.Repeat(suffixPad, n-1)
	out := make([]string, len(ext)-n+1)
	for i := range out {
		out[i] = ext[i : i+n]
	}
	return out
}

// gramSet is a positional n-gram multiset: gram → number of occurrences
// (the paper's g(s), a set of (count, gram) pairs).
type gramSet map[string]int

// newGramSet returns the n-gram multiset of s.
func newGramSet(s string, n int) gramSet {
	set := make(gramSet)
	for _, g := range grams(s, n) {
		set[g]++
	}
	return set
}

// commonSize returns |cg(s1,s2)| = Σ min(a1,a2) over shared grams.
func (g gramSet) commonSize(o gramSet) int {
	total := 0
	for gram, a := range g {
		total += min(a, o[gram])
	}
	return total
}

// estPrime computes est'(sq, sd) (Eq. 1): the n-gram lower bound of the edit
// distance between the two strings,
//
//	est' = (max(|sq|,|sd|) − |cg(sq,sd)| − 1)/n + 1,
//
// clamped at 0 (identical strings yield a non-positive raw value).
func estPrime(sq, sd string, n int) float64 {
	cg := newGramSet(sq, n).commonSize(newGramSet(sd, n))
	return estFromCommon(len(sq), len(sd), cg, n)
}

// estFromCommon evaluates Eq. 1 given the two lengths and the (possibly
// estimated) common-gram count. The reference nG-signature substitutes the
// hit-gram count for it (Eq. 3).
func estFromCommon(lq, ld, common, n int) float64 {
	est := float64(max(lq, ld)-common-1)/float64(n) + 1
	return max(est, 0)
}
