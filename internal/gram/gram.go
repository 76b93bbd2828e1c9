// Package gram holds the refine step's exact metric: the Levenshtein
// distance, computed bit-parallel against a pattern prepared once per query
// term. The paper's n-gram machinery (padding, gram multisets and Eq. 1's
// est') lives on beside the reference nG-signature in internal/bench.
package gram

import "unsafe"

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

// Set prepares p for the string s. Neither Set nor Distance lets p escape, so
// one-off callers (EditDistance, metric.TermDiff) keep the 2 KiB table on
// their stack. That is why the kernel is not generic: a cross-package call of
// a generic instance lets its pointer arguments escape.
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

// DistanceBytes is Distance over a byte slice, such as a verified table
// record's string, read in place: Distance keeps no reference to it.
func (p *Pattern) DistanceBytes(b []byte) int {
	return p.Distance(unsafe.String(unsafe.SliceData(b), len(b)))
}

// Distance returns the edit distance between the pattern and b by the
// bit-parallel Levenshtein core: the DP matrix's column of vertical deltas
// lives in two words (pv: +1, mv: −1), one step per byte of b, and the score
// follows the bottom row's horizontal delta.
func (p *Pattern) Distance(b string) int {
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
func editDistanceDP(a, b string) int {
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
