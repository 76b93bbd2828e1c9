// Package gram implements the paper's n-gram machinery: n-gram extraction
// with '#'/'$' padding, positional n-gram multisets, the common-gram-set
// lower bound est' of Gravano et al. (the paper's Eq. 1–2),
// and the exact bit-parallel edit distance used by the refine step.
package gram

// PrefixPad and SuffixPad are the two symbols outside the text alphabet used
// to extend a string before extracting its n-grams (§III-B.1).
const (
	PrefixPad = '#'
	SuffixPad = '$'
)

// Grams returns all n-grams of s in order: the string is extended with n−1
// PrefixPad bytes and n−1 SuffixPad bytes, and every window of n consecutive
// bytes of the extension is one gram. A string of length m has m+n−1 grams.
func Grams(s string, n int) []string {
	if n < 1 {
		panic("gram: n < 1")
	}
	if n == 1 {
		out := make([]string, len(s))
		for i := 0; i < len(s); i++ {
			out[i] = s[i : i+1]
		}
		return out
	}
	ext := make([]byte, 0, len(s)+2*(n-1))
	for i := 0; i < n-1; i++ {
		ext = append(ext, PrefixPad)
	}
	ext = append(ext, s...)
	for i := 0; i < n-1; i++ {
		ext = append(ext, SuffixPad)
	}
	count := len(ext) - n + 1
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, string(ext[i:i+n]))
	}
	return out
}

// Set is a positional n-gram multiset: gram → number of occurrences
// (the paper's g(s), a set of (count, gram) pairs).
type Set map[string]int

// NewSet returns the n-gram multiset of s.
func NewSet(s string, n int) Set {
	set := make(Set)
	for _, g := range Grams(s, n) {
		set[g]++
	}
	return set
}

// Size returns |Ω| = Σ counts.
func (g Set) Size() int {
	total := 0
	for _, a := range g {
		total += a
	}
	return total
}

// CommonSize returns |cg(s1,s2)| = Σ min(a1,a2) over shared grams.
func (g Set) CommonSize(o Set) int {
	total := 0
	for gram, a := range g {
		if b, ok := o[gram]; ok {
			if b < a {
				total += b
			} else {
				total += a
			}
		}
	}
	return total
}

// EstPrime computes est'(sq, sd) (Eq. 1): the n-gram lower bound of the edit
// distance between the two strings,
//
//	est' = (max(|sq|,|sd|) − |cg(sq,sd)| − 1)/n + 1,
//
// clamped at 0 (identical strings yield a non-positive raw value).
func EstPrime(sq, sd string, n int) float64 {
	cg := NewSet(sq, n).CommonSize(NewSet(sd, n))
	return EstFromCommon(len(sq), len(sd), cg, n)
}

// EstFromCommon evaluates Eq. 1 given the two lengths and the (possibly
// estimated) common-gram count. The ablate-signature experiment's reference
// nG-signature substitutes the hit-gram count for it (Eq. 3).
func EstFromCommon(lq, ld, common, n int) float64 {
	m := lq
	if ld > m {
		m = ld
	}
	est := float64(m-common-1)/float64(n) + 1
	if est < 0 {
		return 0
	}
	return est
}

// text is what the edit-distance kernels accept: table strings come decoded
// (string) or straight from verified record bytes ([]byte).
type text interface{ ~string | ~[]byte }

// Pattern is a string prepared for many exact edit-distance computations: the
// Peq table of Myers' bit-parallel algorithm (in Hyyrö's global-distance
// form), built once. The refine step holds one per text query term. A string
// longer than one machine word carries no table and falls back on the DP.
type Pattern struct {
	s   string
	peq [256]uint64 // peq[c] bit i set ⇔ s[i] == c (len(s) ≤ 64)
}

// maxPattern is the longest string the one-word bit-parallel core handles.
const maxPattern = 64

// Set prepares p for the string s. It is a method on a value so that one-off
// callers (EditDistance, metric.TermDiff) keep the 2 KiB table on the stack.
func (p *Pattern) Set(s string) {
	if len(p.s) <= maxPattern {
		for i := 0; i < len(p.s); i++ {
			p.peq[p.s[i]] = 0 // forget the previous string
		}
	}
	p.s = s
	if len(s) <= maxPattern {
		for i := 0; i < len(s); i++ {
			p.peq[s[i]] |= 1 << uint(i)
		}
	}
}

// Distance returns the edit distance between the pattern and b.
func (p *Pattern) Distance(b string) int { return patternDistance(p, b) }

// DistanceBytes is Distance over a byte slice.
func (p *Pattern) DistanceBytes(b []byte) int { return patternDistance(p, b) }

// patternDistance is the bit-parallel Levenshtein core: the DP matrix's
// column of vertical deltas lives in two words (pv: +1, mv: −1), one step per
// byte of b, and the score follows the bottom row's horizontal delta.
func patternDistance[T text](p *Pattern, b T) int {
	m := len(p.s)
	if m > maxPattern {
		return editDistanceDP(p.s, b)
	}
	if m == 0 {
		return len(b)
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << uint(m-1)
	score := m
	for i := 0; i < len(b); i++ {
		eq := p.peq[b[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1 // row 0 of the global matrix grows by one per column
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// EditDistance returns the Levenshtein distance between a and b: the minimum
// number of single-character insertions, deletions and substitutions that
// transform a into b. This is the exact metric of the refine step, which
// prepares the query string's Pattern once instead.
func EditDistance(a, b string) int {
	if len(b) < len(a) {
		a, b = b, a // the shorter string is the pattern
	}
	var p Pattern
	p.Set(a)
	return p.Distance(b)
}

// editDistanceDP is the two-row dynamic program: the fallback for a pattern
// longer than 64 bytes, and the reference the bit-parallel core is tested
// against.
func editDistanceDP[T text](a string, b T) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost        // substitution
			if v := prev[j] + 1; v < d { // deletion
				d = v
			}
			if v := cur[j-1] + 1; v < d { // insertion
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
