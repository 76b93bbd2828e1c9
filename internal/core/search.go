package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/vector"
)

// SearchStats reports where one query's work went, matching the paper's
// filtering/refining decomposition (Figs. 9 and 15).
type SearchStats struct {
	// Scanned is the number of live tuple-list entries filtered.
	Scanned int64
	// TableAccesses is the number of random table-file fetches (Fig. 8).
	TableAccesses int64
	// FilterWall, RefineWall and MergeWall split the measured wall time
	// between scanning the index, checking candidates in the table file, and
	// the deterministic (dist, tid) top-k merge; they sum to the plan's wall
	// clock.
	FilterWall time.Duration
	RefineWall time.Duration
	MergeWall  time.Duration
	// FetchWall is the part of RefineWall spent in random table-file reads:
	// one fetch in fetchSample is timed and scaled, and the sum apportioned
	// like RefineWall, so it never exceeds it.
	FetchWall time.Duration
	// FilterIO and RefineIO split the physical page I/O.
	FilterIO storage.Snapshot
	RefineIO storage.Snapshot
	// Workers is the number of filter workers the search ran with.
	Workers int
	// StripesTotal is the number of stripes the tuple list was cut into, at
	// every worker count (1 when the index has no usable checkpoints);
	// StripesSkipped counts stripes never claimed because the search
	// aborted early (cancellation or an error).
	StripesTotal   int
	StripesSkipped int
	// WorkerProfiles breaks the filter work down per worker: stripes
	// claimed, tuples scanned, candidates fetched, and busy wall time —
	// Workers entries whose Stripes sum to StripesTotal - StripesSkipped.
	WorkerProfiles []WorkerStats
	// DegradedSegments is the number of distinct corrupt vector-list
	// segments the query read past (each forced its term's lower bound to
	// zero, sending the affected tuples to refine).
	DegradedSegments int
	// Terms holds each query term's share of the filter, in query order,
	// summed over the workers.
	Terms []TermStats
}

// TermStats is one query term's share of a search (SearchStats.Terms): every
// scanned tuple is either Defined on the term's attribute or charged the ndf
// penalty (NDF), and Pruned counts the pruned tuples whose largest lower
// bound was this term's.
type TermStats struct {
	Defined int64
	NDF     int64
	Pruned  int64
}

// WorkerStats is one filter worker's share of a query (SearchStats).
type WorkerStats struct {
	Stripes int64 // stripes claimed from the shared counter
	Scanned int64
	Fetched int64
	Busy    time.Duration
}

// Total returns the query's full wall time.
func (s SearchStats) Total() time.Duration { return s.FilterWall + s.RefineWall + s.MergeWall }

// termState is one query term prepared for scanning. prepareTerms builds the
// query-wide part once (st, qs, exact: read-only, shared by the workers);
// each worker's copy adds its own cursor, column and counters.
type termState struct {
	term   model.QueryTerm
	st     *attrState             // nil when the attribute has no vector list
	cursor *vector.Cursor         // nil until the worker's first stripe opens it
	qs     *signature.QueryString // text terms
	exact  *metric.TermExact      // the refine step's exact differences

	// col is the lower-bound column the cursor's merge-join is filling
	// (vector.Sink) and hits the elements it has seen in the batch.
	col  []float64
	hits int

	// This worker's share of the term's counts (SearchStats.Terms).
	TermStats

	// degraded marks a term whose vector list hit a checksum mismatch: for
	// the rest of the stripe it contributes a zero lower bound — always ≤ the true difference, so no false negatives — and
	// every tuple it would have pruned goes to refine instead. It is cleared
	// per stripe (each stripe repositions cursors at a checkpoint,
	// resynchronizing past the damage).
	degraded bool
}

// Text implements vector.Sink: the text bound over the element's strings.
func (ts *termState) Text(j int, sigs []signature.Sig) {
	ts.col[j] = ts.textBound(sigs)
	ts.hits++
}

// Num implements vector.Sink: the slice distance of the element's code.
func (ts *termState) Num(j int, code uint64) {
	ts.col[j] = ts.st.quant.MinDist(ts.term.Num, code)
	ts.hits++
}

// textBound is the smallest estimate over a text value's strings.
func (ts *termState) textBound(sigs []signature.Sig) float64 {
	best := math.Inf(1)
	for _, s := range sigs {
		var d float64
		if len(s.H) == 1 {
			d = ts.qs.EstWord(s.Len, s.H[0])
		} else {
			d = ts.qs.Est(s)
		}
		if d < best {
			best = d
		}
		if best == 0 {
			break
		}
	}
	return best
}

// degrade absorbs a corruption error from a term's vector list — the term
// reads on with zero lower bounds, which refine makes exact — reporting
// whether err was one. An explained search takes none: the bounds are what
// it reports, so the error fails the call.
func (sw *stripeWorker) degrade(ts *termState, err error) bool {
	var ce *storage.CorruptionError
	if sw.ex != nil || !errors.As(err, &ce) {
		return false
	}
	ts.degraded = true
	sw.degSegs[ce.Segment] = struct{}{}
	return true
}

// Search answers a top-k structured similarity query with Algorithm 1: the
// tuple list and the vector lists of the queried attributes are scanned in a
// synchronized pass; each tuple's estimated distance (a lower bound, by
// Prop. 3.3 and §III-C) gates a random access to the table file where the
// exact distance is computed against the temporary result pool.
func (ix *Index) Search(q *model.Query, m *metric.Metric) ([]model.Result, SearchStats, error) {
	return ix.SearchContext(context.Background(), q, m)
}

// SearchContext is Search under a context. Cancellation and deadlines are
// honored at every stripe claim, at every batch of tuple-list positions
// within a stripe (batchSize, at most 1,024) and before each refine fetch,
// returning ctx.Err() with the stats accumulated so far. An already-expired
// context fails before any device read.
func (ix *Index) SearchContext(ctx context.Context, q *model.Query, m *metric.Metric) ([]model.Result, SearchStats, error) {
	if err := q.Validate(); err != nil {
		return nil, SearchStats{}, err
	}
	if err := ctx.Err(); err != nil {
		// Expired before dispatch: fail without touching the device.
		return nil, SearchStats{}, err
	}
	if m == nil {
		m = metric.Default()
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.search(ctx, q, m, ix.planShape(), nil)
}

// prepareTerms resolves the query terms against the attribute list and
// builds the shared per-term query state: the query string with its lane
// masks, the exact-difference evaluator with its edit-distance pattern.
// Cursors are not opened here: each worker opens one per term
// (workerScratch.openTerm). Caller holds ix.mu.RLock.
func (ix *Index) prepareTerms(q *model.Query) ([]termState, error) {
	terms := make([]termState, len(q.Terms))
	exact := make([]metric.TermExact, len(q.Terms))
	for i, term := range q.Terms {
		exact[i].Set(term)
		ts := termState{term: term, exact: &exact[i]}
		if int(term.Attr) < len(ix.attrs) && ix.attrs[term.Attr].exists {
			st := &ix.attrs[term.Attr]
			if st.layout.Kind != term.Kind {
				return nil, fmt.Errorf("core: query term on attribute %d is %v, attribute is %v",
					term.Attr, term.Kind, st.layout.Kind)
			}
			ts.st = st
		}
		if term.Kind == model.KindText {
			// Per-attribute α overrides give attributes their own codecs;
			// the query string must be bucketed under the data strings'
			// widths. QueryString's plans are published once each, so
			// stripe workers share them without locking.
			codec := ix.codec
			if ts.st != nil && ts.st.layout.Codec != nil {
				codec = ts.st.layout.Codec
			}
			ts.qs = codec.NewQueryString(term.Str)
		}
		terms[i] = ts
	}
	return terms, nil
}
