package oracle

import "math/rand"

// opKind is one step of the oracle's schedule.
type opKind int

// Schedule operations. opRoundTrip is the insert→delete metamorphic probe
// (the pair must be a no-op for search results); opReopen implies a sync.
const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opSearch
	opSync
	opReopen
	opRebuild
	opRoundTrip
)

var opNames = [...]string{"insert", "update", "delete", "search", "sync", "reopen", "rebuild", "roundtrip"}

func (k opKind) String() string { return opNames[k] }

// nextOp draws the next schedule operation given the current live tuple
// count. Small stores are seeded with inserts; large ones are biased toward
// deletes so the live set stays bounded and searches stay affordable.
func nextOp(rng *rand.Rand, live int) opKind {
	if live < 20 {
		return opInsert
	}
	type wk struct {
		k opKind
		w float64
	}
	weights := []wk{
		{opInsert, 0.40}, {opUpdate, 0.06}, {opDelete, 0.12},
		{opSearch, 0.12}, {opSync, 0.05}, {opReopen, 0.01},
		{opRebuild, 0.01}, {opRoundTrip, 0.04},
	}
	if live > 1200 {
		weights[0].w, weights[2].w = 0.08, 0.45
	}
	var total float64
	for _, w := range weights {
		total += w.w
	}
	r := rng.Float64() * total
	for _, w := range weights {
		if r < w.w {
			return w.k
		}
		r -= w.w
	}
	return opInsert
}
