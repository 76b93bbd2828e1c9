// Package topk implements the temporary result pool of §IV-A: a bounded
// max-heap of at most k (tid, distance) pairs supporting the three
// operations Algorithm 1 needs — Size, MaxDist and Insert — plus an ordered
// extraction for the final answer.
//
// The pool orders pairs by the total lexicographic order (dist, tid):
// distance ties are broken toward the smaller tid in admission and eviction
// alike. A full pool therefore holds exactly the k lex-smallest pairs ever
// inserted, independent of insertion order — the invariant that makes the
// parallel filter plan's merge byte-identical to the sequential scan.
package topk

import (
	"container/heap"
	"math"
	"sort"

	"github.com/sparsewide/iva/internal/model"
)

// Pool holds the k best candidates seen so far.
type Pool struct {
	k int
	h resultHeap
}

// New returns an empty pool of capacity k (k ≥ 1).
func New(k int) *Pool {
	if k < 1 {
		k = 1
	}
	return &Pool{k: k}
}

// K returns the pool capacity.
func (p *Pool) K() int { return p.k }

// Size returns the number of stored results.
func (p *Pool) Size() int { return len(p.h) }

// Full reports whether the pool holds k results.
func (p *Pool) Full() bool { return len(p.h) >= p.k }

// MaxDist returns the largest stored distance, or +Inf when the pool is not
// yet full (so any candidate qualifies, matching Algorithm 1's
// "pool.Size() < k or dist < pool.MaxDist()" guard when used alone).
func (p *Pool) MaxDist() float64 {
	if !p.Full() {
		return math.Inf(1)
	}
	return p.h[0].Dist
}

// Admits reports whether a tuple whose (estimated or actual) distance is d
// could still enter the pool under some tid: true when d is at or below the
// pool maximum, since a distance tie can be won on the tid tie-break.
func (p *Pool) Admits(d float64) bool {
	return !p.Full() || d <= p.h[0].Dist
}

// AdmitsPair reports whether the exact pair (tid, d) would enter the pool —
// the tid-aware form of Admits. Gating a fetch on a lower bound with
// AdmitsPair is safe: if (est, tid) does not lex-beat the pool maximum then
// (actual, tid) with actual ≥ est cannot either.
func (p *Pool) AdmitsPair(tid model.TID, d float64) bool {
	if !p.Full() {
		return true
	}
	if d != p.h[0].Dist {
		return d < p.h[0].Dist
	}
	return tid < p.h[0].TID
}

// Insert offers a result. If the pool is full and (dist, tid) does not
// lexicographically beat the current maximum pair, the pool is unchanged and
// Insert reports false.
func (p *Pool) Insert(tid model.TID, dist float64) bool {
	if p.Full() {
		if !p.AdmitsPair(tid, dist) {
			return false
		}
		p.h[0] = model.Result{TID: tid, Dist: dist}
		heap.Fix(&p.h, 0)
		return true
	}
	// Append and sift up in place: heap.Push would box the pair.
	p.h = append(p.h, model.Result{TID: tid, Dist: dist})
	heap.Fix(&p.h, len(p.h)-1)
	return true
}

// Results returns the stored results ordered by increasing distance
// (ties by tid for determinism). The pool is left intact.
func (p *Pool) Results() []model.Result {
	out := make([]model.Result, len(p.h))
	copy(out, p.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// resultHeap is a max-heap on the lexicographic (Dist, TID) order, so the
// root is the pair any new candidate must beat.
type resultHeap []model.Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist > h[j].Dist
	}
	return h[i].TID > h[j].TID
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(model.Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
