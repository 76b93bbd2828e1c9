package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
	"github.com/sparsewide/iva/internal/vector"
)

// The striped filter plan — the only implementation of Algorithm 1. The tuple
// list is cut into stripes (see scanPlan); workers claim stripes from a
// shared counter, open their own cursors at the stripe's checkpoint, scan
// with a private top-k pool and do their own refine fetches. A shared
// admission bar (the smallest full-pool max distance published by any worker)
// lets one stripe's tight bound prune the others.
//
// Seed, defer, sweep. The filter fetches nothing: an entry whose bound is
// above the bar is pruned, every other one goes to the worker's deferred
// list. At each stripe's end the worker seeds: it refines the list's k lowest
// (est, tid) entries in that order — the tuples most likely to be in the
// answer, so the bar falls as far as it can before any other fetch — and drops
// what is now above the bar. The survivors wait, and are swept in tuple-list
// order when the worker has no stripe left to claim, each put to admitsEst
// afresh. Algorithm 1's tuple order tightens the bar only when good tuples
// happen to come early. A pure bound order would fetch the fewest tuples but
// jump between table pages: consecutive survivors of a sweep often share one,
// which the pinned record keeps. Every entry below the final k-th distance is
// still fetched, since no bar it meets is below that distance.
//
// Determinism: the result is byte-identical under any worker count and
// scheduling. The top-k pool orders pairs by the total
// lexicographic (dist, tid) order — admission, eviction and the tid-aware
// fetch gate (AdmitsPair) all use it — so a pool holds exactly the k
// lex-smallest pairs of whatever subset was offered to it, independent of
// offer order: a candidate rejected at scan time was lex-beaten by k pool
// members at that moment, and the pool's k-th bound only tightens afterward.
// Each worker's pool is thus the exact top-k of its stripes, the global k
// smallest pairs are contained in the union of the local pools, and the lex
// merge reproduces the one-worker answer. The shared bar prunes only on
// est > bar (strictly): such a tuple's exact distance exceeds the max of some
// full pool, i.e. k pairs of strictly smaller distance exist, so it can never
// appear in the answer regardless of tid ties. See DESIGN.md.

// distBar is an atomic global admission bar over float64 distances.
type distBar struct{ bits atomic.Uint64 }

func (b *distBar) init()         { b.bits.Store(math.Float64bits(math.Inf(1))) }
func (b *distBar) load() float64 { return math.Float64frombits(b.bits.Load()) }

// lower CAS-min-publishes d.
func (b *distBar) lower(d float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= d {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(d)) {
			return
		}
	}
}

// admitsEst is the full per-tuple admission rule of Algorithm 1: the
// candidate must beat the worker's local pool (lexicographically, via
// AdmitsPair) and must not be strictly above the shared bar: such a tuple's
// exact distance exceeds the max of some full pool — k strictly smaller pairs
// exist, so it can never reach the answer, tid ties included.
func admitsEst(pool *topk.Pool, bar *distBar, tid model.TID, est float64) bool {
	return pool.AdmitsPair(tid, est) && !(est > bar.load())
}

// scanPlan is the shape of one search's filter scan. It is derived from what
// the index can observe (planShape), never from an option that names a plan.
type scanPlan struct {
	// ckpts holds one resume point per stripe; stripe s covers tuple-list
	// positions [s·width, (s+1)·width) ∩ [0, n).
	ckpts   []checkpoint
	width   int64
	workers int
}

// planShape decides how a search dispatched now would run. With usable
// checkpoints the tuple list is scanned in len(ix.ckpts) stripes of ckptEvery
// entries. Without them — checkpoints dropped at open after damage or by
// recordCheckpoint's gap guard, an empty index — it is one stripe [0, n)
// anchored at the origin. Workers are capped by the stripe count, and a
// tuple list shorter than two full stripes gets one: a second private top-k
// pool there costs more duplicate refine fetches than its half of the scan
// saves. Caller holds ix.mu.
func (ix *Index) planShape() scanPlan {
	n := int64(len(ix.entries))
	p := scanPlan{ckpts: ix.ckpts, width: ix.ckptEvery}
	if !ix.checkpointsEnabled() || len(ix.ckpts) == 0 {
		// The zero checkpoint resumes every list at offset 0.
		p = scanPlan{ckpts: make([]checkpoint, 1), width: n}
	}
	p.workers = ix.opts.SearchParallelism
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	if n < 2*ix.ckptEvery {
		p.workers = 1
	}
	p.workers = min(p.workers, len(p.ckpts))
	return p
}

// batchSize is the number of tuple-list positions the filter decodes, bounds
// and admits at a time. It is a constant, not a knob: a batch's columns (28
// bytes of id, position, pointer and estimate plus 8 per term per entry —
// 26 KiB at three terms) should stay in the first-level cache, and the
// positions scanned between two polls of the query's context may not exceed
// 1,024. On the benchmark's search-warm workload every size from 128 to 1,024
// ran within 4% of every other; 512 and 1,024 shared the best median.
const batchSize = 512

// workerScratch holds the per-worker state reused across queries via a
// sync.Pool, so that a query allocates none of it: readers, the columns of
// the batch at hand, the record buffer of the refine step.
type workerScratch struct {
	termRds []*storage.ChainBitReader

	// The live entries of the batch at hand, in tuple-list order.
	tids []model.TID
	pos  []int64
	ptrs []int64
	cols [][]float64 // cols[i][j]: term i's lower bound for entry j
	est  []float64   // combined lower bounds

	// credit[j] is the term a prune of entry j is credited to, and top[j]
	// that term's bound (creditTerms).
	credit []int32
	top    []float64

	// The deferred list: admitted entries not yet refined, [:ndef] of a
	// deferCap-long slice, in tuple-list order (a worker's stripe claims
	// rise). seeds is the seed step's selection heap of list indices.
	deferred []deferred
	ndef     int
	seeds    []int32

	diffs []float64 // the fetched tuple's exact per-term differences
	rec   table.Record
}

// deferred is an admitted entry whose refine waits for its stripe's seed or
// the worker's sweep: 24 bytes.
type deferred struct {
	est  float64
	ptr  int64 // -1 once seed has refined it
	tid  model.TID
	term int32 // the term a prune of the entry is credited to (creditTerms)
}

// deferCap bounds the deferred list, and only its memory: 192 KiB per
// worker. A batch head that finds fewer than batchSize free slots drains the
// list mid-stripe. With checkpoints a list holds one stripe's deferred
// entries plus the survivors of earlier seeds, which are many only where the
// bounds prune little: internal/dataset's §V-A stream peaks at 7,826 entries
// at 10,000 tuples and drains 9 times in 100 queries at 60,000. An index
// without checkpoints is one stripe, whose list fills before its first refine.
const deferCap = 8192

var scratchPool = sync.Pool{New: func() interface{} {
	return &workerScratch{
		tids: make([]model.TID, batchSize), pos: make([]int64, batchSize),
		ptrs: make([]int64, batchSize), est: make([]float64, batchSize),
		credit: make([]int32, batchSize), top: make([]float64, batchSize),
		deferred: make([]deferred, deferCap),
	}
}}

// forTerms sizes the per-term scratch for an n-term query.
func (sc *workerScratch) forTerms(n int) {
	for len(sc.cols) < n {
		sc.cols = append(sc.cols, make([]float64, batchSize))
	}
	if cap(sc.diffs) < n {
		sc.diffs = make([]float64, n)
	}
	sc.diffs = sc.diffs[:n]
}

// reopen binds a pooled reader (nil on first use) to chain c. The verify hook
// is re-attached every time: the pooled reader may have been bound to another
// index, or to nothing.
func (ix *Index) reopen(r *storage.ChainBitReader, c storage.ChainID, bits int64) *storage.ChainBitReader {
	if r == nil {
		r = storage.NewChainBitReader(ix.segs, c, bits)
	} else {
		r.Reset(ix.segs, c, bits)
	}
	ix.attachVerify(r, c)
	return r
}

// decodeBatch copies tuple-list positions [pos, end) — at most batchSize of
// them — from the mirror Open verified into the tid/pos/ptr columns, dropping
// deleted entries, and returns the number of live ones.
func (sc *workerScratch) decodeBatch(ix *Index, pos, end int64) int {
	n := 0
	for i, e := range ix.entries[pos:end] {
		if e.deleted {
			continue // no filtering, cursors skip in passing
		}
		sc.tids[n], sc.pos[n], sc.ptrs[n] = e.tid, pos+int64(i), e.ptr
		n++
	}
	return n
}

// openTerm positions term i's cursor to resume its attribute's vector list at
// tuple-list position pos from checkpoint ck; a term whose attribute has no
// list has no cursor. The worker's first stripe binds a pooled reader to the
// list's PHYSICAL stream, wraps it in a logical source (termSource) — for
// packed lists a BlockSource decoding blocks on demand — which is the
// coordinate checkpoint offsets speak, and builds the cursor; later stripes
// only reposition it.
func (sc *workerScratch) openTerm(ix *Index, i int, ts *termState, ck checkpoint, pos int64) error {
	if ts.st == nil {
		return nil
	}
	off := ck.attrOffset(int(ts.term.Attr))
	if ts.cursor != nil {
		return ts.cursor.ResetAt(off, pos)
	}
	for len(sc.termRds) <= i {
		sc.termRds = append(sc.termRds, nil)
	}
	sc.termRds[i] = ix.reopen(sc.termRds[i], ts.st.chain, ts.st.physBits())
	src, err := ix.termSource(ts.st, sc.termRds[i])
	if err != nil {
		return err
	}
	cur, err := vector.NewCursorAt(ts.st.layout, src, off, pos)
	if err != nil {
		return err
	}
	ts.cursor = cur
	return nil
}

// release closes the readers and the record — their windows are pinned
// buffer-pool frames, and an idle pin would block eviction between queries —
// empties the deferred list, which a failed or cancelled search leaves
// behind, then returns the scratch to the pool for reuse.
func (sc *workerScratch) release() {
	sc.ndef = 0
	sc.rec.Release()
	for _, r := range sc.termRds {
		if r != nil {
			r.Close()
		}
	}
	scratchPool.Put(sc)
}

// stripeWorker is one filter worker of a search.
type stripeWorker struct {
	ix      *Index
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), loaded once per worker; see cancelled
	m       *metric.Metric
	weights []float64 // the terms' resolved λ, shared read-only
	plan    *scanPlan
	terms   []termState  // private copies: counters and cursors are per-worker
	kinds   []model.Kind // the catalog's kinds, for walking fetched records
	last    model.AttrID // the largest queried attribute id
	pool    *topk.Pool
	bar     *distBar
	next    *atomic.Int64 // shared stripe claim counter
	abort   *atomic.Bool

	// degSegs collects the distinct corrupt vector-list segments this worker
	// degraded past; merged into SearchStats at the end.
	degSegs map[uint32]struct{}

	scratch *workerScratch
	ex      *explainer // ExplainSearch's collector; nil on every other search

	prof       WorkerStats   // this worker's share, reported as is
	refineWall time.Duration // the seeds and sweeps: every fetch, distance and pool update
	fetchWall  time.Duration // FetchRecord time: one call in fetchSample is timed and scaled
	err        error
}

// search executes Algorithm 1 over plan. Worker 0 runs on the calling
// goroutine, so a one-worker search starts none, claims the stripes in order
// and carries one pool across them — the canonical admission sequence
// ExplainSearch reports. ExplainSearch passes its collector as ex, with a
// one-worker plan, and worker 0 carries it; every other caller passes nil.
// Caller holds ix.mu.RLock.
func (ix *Index) search(ctx context.Context, q *model.Query, m *metric.Metric, plan scanPlan, ex *explainer) ([]model.Result, SearchStats, error) {
	var stats SearchStats
	stats.Workers = plan.workers
	stats.StripesTotal = len(plan.ckpts)
	idxIO := ix.f.IOStats()
	tblIO := ix.tbl.IOStats()
	startIdx, startTbl := idxIO.Snapshot(), tblIO.Snapshot()
	wallStart := time.Now()

	shared, err := ix.prepareTerms(q)
	if err != nil {
		return nil, stats, err
	}
	weights := m.Weights(q.Terms)
	// Every record the tuple list reaches was appended under the write lock,
	// after its attributes were registered; the caller's read lock orders
	// those appends before this snapshot.
	kinds := ix.tbl.Catalog().Kinds()
	var last model.AttrID
	for _, t := range q.Terms {
		last = max(last, t.Attr)
	}

	var bar distBar
	bar.init()
	var next atomic.Int64
	var abort atomic.Bool
	workers := make([]*stripeWorker, plan.workers)
	for w := range workers {
		terms := make([]termState, len(shared))
		copy(terms, shared) // st and qs shared, counters/cursor per worker
		workers[w] = &stripeWorker{
			ix: ix, ctx: ctx, done: ctx.Done(), m: m, weights: weights, plan: &plan,
			terms: terms, kinds: kinds, last: last,
			pool: topk.New(q.K), bar: &bar, next: &next, abort: &abort,
			degSegs: make(map[uint32]struct{}),
			scratch: scratchPool.Get().(*workerScratch),
		}
		workers[w].scratch.forTerms(len(terms))
	}
	if ex != nil {
		ex.bind(q, m, workers[0].terms)
		workers[0].ex = ex
	}
	var wg sync.WaitGroup
	for _, sw := range workers[1:] {
		wg.Add(1)
		go func(sw *stripeWorker) {
			defer wg.Done()
			sw.run()
		}(sw)
	}
	workers[0].run()
	wg.Wait()

	allDeg := make(map[uint32]struct{})
	var sumBusy, sumRefine, sumFetch time.Duration
	var claimed int64
	stats.WorkerProfiles = make([]WorkerStats, len(workers))
	stats.Terms = make([]TermStats, len(shared))
	for w, sw := range workers {
		sw.scratch.release()
		if sw.err != nil && err == nil {
			err = sw.err
		}
		stats.WorkerProfiles[w] = sw.prof
		stats.Scanned += sw.prof.Scanned
		stats.TableAccesses += sw.prof.Fetched
		sumBusy += sw.prof.Busy
		sumRefine += sw.refineWall
		sumFetch += sw.fetchWall
		claimed += sw.prof.Stripes
		for id := range sw.degSegs {
			allDeg[id] = struct{}{}
		}
		for i := range stats.Terms {
			t, wt := &stats.Terms[i], sw.terms[i].TermStats
			t.Defined += wt.Defined
			t.NDF += wt.NDF
			t.Pruned += wt.Pruned
		}
	}
	stats.DegradedSegments = len(allDeg)
	// A stripe is claimed at most once, so the difference is what an aborted
	// search never covered.
	stats.StripesSkipped = stats.StripesTotal - int(claimed)
	if err != nil {
		return nil, stats, err
	}

	mergeStart := time.Now()
	results := mergeWorkerPools(workers, q.K)
	stats.MergeWall = time.Since(mergeStart)
	total := time.Since(wallStart)
	// Workers overlap in real time, so their phase durations are CPU sums;
	// apportion the elapsed pre-merge wall by the refine share of total busy
	// time so that FilterWall + RefineWall + MergeWall still equals the
	// query's wall clock.
	if sumBusy > 0 {
		stats.RefineWall = time.Duration(float64(total-stats.MergeWall) * float64(sumRefine) / float64(sumBusy))
	}
	stats.FilterWall = total - stats.RefineWall - stats.MergeWall
	// Per-file attribution: the filter phase reads only the index file, the
	// refine phase only the table file.
	stats.FilterIO = idxIO.Snapshot().Sub(startIdx)
	stats.RefineIO = tblIO.Snapshot().Sub(startTbl)
	stats.FetchWall = stats.RefineWall
	if sumFetch < sumRefine { // a scaled sample may overshoot; the fetch stays inside refine
		stats.FetchWall = time.Duration(float64(stats.RefineWall) * float64(sumFetch) / float64(sumRefine))
	}
	return results, stats, nil
}

// mergeWorkerPools offers every worker's pool to one more pool, which keeps
// the k lexicographically-smallest (dist, tid) pairs — the deterministic
// merge, under the same order every worker admitted by.
func mergeWorkerPools(workers []*stripeWorker, k int) []model.Result {
	merged := topk.New(k)
	for _, sw := range workers {
		for _, r := range sw.pool.Results() {
			merged.Insert(r.TID, r.Dist)
		}
	}
	return merged.Results()
}

func (sw *stripeWorker) run() {
	start := time.Now()
	defer func() {
		sw.prof.Busy = time.Since(start)
		if sw.err != nil {
			sw.abort.Store(true) // stops the other workers' next claims too
		}
	}()
	for {
		s := sw.next.Add(1) - 1
		if sw.abort.Load() {
			return
		}
		if s >= int64(len(sw.plan.ckpts)) {
			sw.err = sw.drain(false)
			return
		}
		// Every stripe claim is a cancellation point.
		if sw.err = sw.cancelled(); sw.err != nil {
			return
		}
		sw.prof.Stripes++
		if sw.err = sw.scanStripe(s); sw.err != nil {
			return
		}
	}
}

// cancelled polls the query's context. Err() of a cancellable context takes
// its mutex and turns non-nil only by closing Done, so the channel is polled;
// a context without one (context.Background) has only Err, and it is free.
func (sw *stripeWorker) cancelled() error {
	if sw.done == nil {
		return sw.ctx.Err()
	}
	select {
	case <-sw.done:
		return sw.ctx.Err()
	default:
		return nil
	}
}

// scanStripe runs the Algorithm 1 loop over stripe s, resuming every cursor
// from the stripe's checkpoint. The loop is batch-at-a-time, every stage a
// loop over a column: decode a batch of tuple-list entries, let every term
// fill its lower-bound column, combine the columns into the estimates, then
// walk those, pruning each entry above the bar and deferring the rest. The
// stripe ends with a seed of the deferred list.
func (sw *stripeWorker) scanStripe(s int64) error {
	ix, sc := sw.ix, sw.scratch
	startPos := s * sw.plan.width
	endPos := min(startPos+sw.plan.width, int64(len(ix.entries)))
	ck := sw.plan.ckpts[s]

	for i := range sw.terms {
		ts := &sw.terms[i]
		// Each stripe repositions cursors at its checkpoint, so a term degraded
		// in an earlier stripe resynchronizes here: degradation is scoped to
		// the stripe that read the corrupt segment.
		ts.degraded = false
		if err := sc.openTerm(ix, i, ts, ck, startPos); err != nil && !sw.degrade(ts, err) {
			return err
		}
	}

	for pos := startPos; pos < endPos; pos += batchSize {
		// A stripe may be the whole tuple list, so deadlines are also polled
		// inside it.
		if err := sw.cancelled(); err != nil {
			return err
		}
		if sc.ndef > deferCap-batchSize {
			if err := sw.drain(true); err != nil {
				return err
			}
		}
		n := sc.decodeBatch(ix, pos, min(pos+batchSize, endPos))
		sw.prof.Scanned += int64(n)
		for i := range sw.terms {
			if err := sw.fillColumn(i, n); err != nil {
				return err
			}
		}
		if sw.ex != nil {
			sw.ex.batch(sc.tids, sc.cols, n)
		}
		cols := sc.cols[:len(sw.terms)]
		sw.m.CombineColumns(cols, sw.weights, sc.est[:n])
		creditTerms(sc.credit[:n], sc.top[:n], cols)

		// The admission walk fetches nothing, so its bar holds for the whole
		// batch: thr is the looser of admitsEst's two limits, and an estimate
		// above it is one admitsEst would refuse now and at any later time.
		thr := min(sw.pool.MaxDist(), sw.bar.load())
		for j, est := range sc.est[:n] {
			term := sc.credit[j]
			if est > thr {
				sw.terms[term].Pruned++
				continue
			}
			sc.deferred[sc.ndef] = deferred{est: est, ptr: sc.ptrs[j], tid: sc.tids[j], term: term}
			sc.ndef++
		}
	}
	return sw.drain(true)
}

// drain refines from the deferred list. With seed set it refines the list's
// k lowest entries first (seed) and sweeps only a list still too full for
// another batch; without it, it sweeps. A stripe ends with drain(true), and so
// does a batch head that finds the list near deferCap; a worker with no stripe
// left drains with false. Its time is the worker's refine time.
func (sw *stripeWorker) drain(seed bool) error {
	if sw.scratch.ndef == 0 {
		return nil
	}
	start := time.Now()
	var err error
	if seed {
		err = sw.seed()
	}
	if err == nil && (!seed || sw.scratch.ndef > deferCap-batchSize) {
		err = sw.sweep()
	}
	sw.refineWall += time.Since(start)
	return err
}

// fillColumn computes term i's lower bounds for the n entries of the batch:
// the ndf penalty wherever the term's vector list has no element, the
// element's estimate elsewhere (termState.Text/Num, called from the cursor's
// merge-join; an explained search's sink wraps them). A
// *storage.CorruptionError from the list degrades the term (see degrade): from
// the first unresolved entry to the end of the stripe its bound is zero. Every
// other error fails the query.
func (sw *stripeWorker) fillColumn(i, n int) error {
	ts, sc := &sw.terms[i], sw.scratch
	ts.col, ts.hits = sc.cols[i][:n], 0
	fill(ts.col, sw.m.NDFPenalty)
	var sink vector.Sink = ts
	if sw.ex != nil {
		sink = sw.ex.column(i, n)
	}
	k := n // entries from k on are unresolved
	if ts.degraded {
		k = 0
	} else if ts.st != nil { // else unknown to the index: every tuple is ndf
		var err error
		k, err = ts.cursor.FillBatch(sc.tids[:n], sc.pos[:n], sink)
		if err != nil && !sw.degrade(ts, err) {
			return err
		}
	}
	clear(ts.col[k:])
	ts.Defined += int64(ts.hits + n - k)
	ts.NDF += int64(k - ts.hits)
	return nil
}

func fill(col []float64, v float64) {
	for j := range col {
		col[j] = v
	}
}

// creditTerms sets credit[j] to the first term with the largest lower bound
// at batch entry j, one column at a time, with top holding the running
// maximum. A prune of the entry is credited to that term: the combiners are
// monotone, so it alone pushed the estimate hardest toward the bar.
func creditTerms(credit []int32, top []float64, cols [][]float64) {
	copy(top, cols[0])
	clear(credit)
	for i := 1; i < len(cols); i++ {
		for j, v := range cols[i][:len(top)] {
			if v > top[j] {
				top[j], credit[j] = v, int32(i)
			}
		}
	}
}

// seed refines the k = pool capacity deferred entries lowest in the pool's
// (est, tid) order, in that order, then drops every entry now above the bar.
// The first of them fill the pool with the tightest bar the list can give
// before any other fetch; what survives waits for the sweep.
func (sw *stripeWorker) seed() error {
	sc := sw.scratch
	list := sc.deferred[:sc.ndef]
	sc.seeds = lowest(sc.seeds[:0], list, sw.pool.K())
	for _, i := range sc.seeds {
		if err := sw.refine(&list[i]); err != nil {
			return err
		}
		list[i].ptr = -1
	}
	thr := min(sw.pool.MaxDist(), sw.bar.load())
	n := 0
	for _, e := range list {
		switch {
		case e.ptr < 0:
		case e.est > thr:
			sw.terms[e.term].Pruned++
		default:
			list[n] = e
			n++
		}
	}
	sc.ndef = n
	return nil
}

// sweep refines the deferred list in tuple-list order and empties it.
// Consecutive survivors often share a table page, which a pure bound order
// would give away.
func (sw *stripeWorker) sweep() error {
	sc := sw.scratch
	for i := range sc.deferred[:sc.ndef] {
		if err := sw.refine(&sc.deferred[i]); err != nil {
			return err
		}
	}
	sc.ndef = 0
	return nil
}

// lowest sets h to the indices of the k smallest entries of list under
// seedLess, ascending: a max-heap of the best k seen, then heapsorted.
func lowest(h []int32, list []deferred, k int) []int32 {
	m := min(k, len(list))
	for i := range m {
		h = append(h, int32(i))
	}
	for r := m/2 - 1; r >= 0; r-- {
		siftDown(h, list, r)
	}
	for i := m; i < len(list); i++ {
		if seedLess(&list[i], &list[h[0]]) {
			h[0] = int32(i)
			siftDown(h, list, 0)
		}
	}
	for n := m - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], list, 0)
	}
	return h
}

// siftDown restores the max-heap h from root r down.
func siftDown(h []int32, list []deferred, r int) {
	for {
		c := 2*r + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && seedLess(&list[h[c]], &list[h[c+1]]) {
			c++
		}
		if !seedLess(&list[h[r]], &list[h[c]]) {
			return
		}
		h[r], h[c] = h[c], h[r]
		r = c
	}
}

// seedLess is the pool's order: (est, tid) lexicographic.
func seedLess(a, b *deferred) bool {
	return a.est < b.est || a.est == b.est && a.tid < b.tid
}

// refine puts deferred entry e to admitsEst afresh, credits its prune if the
// rule refuses it, and otherwise does Algorithm 1's random access to the table
// file. The record is verified where it lies in its pinned page (the worker
// keeps the pin until the next record on another page, or release), then
// walked for the query's attributes only: the exact differences come from the
// payload bytes, and no tuple is materialised.
func (sw *stripeWorker) refine(e *deferred) error {
	if !admitsEst(sw.pool, sw.bar, e.tid, e.est) {
		sw.terms[e.term].Pruned++
		return nil
	}
	if err := sw.cancelled(); err != nil {
		return err
	}
	sc := sw.scratch
	const fetchSample = 8 // a clock read is a visible share of a fetch from a resident page
	var start time.Time
	if sw.prof.Fetched%fetchSample == 0 {
		start = time.Now()
	}
	err := sw.ix.tbl.FetchRecord(e.ptr, &sc.rec)
	if !start.IsZero() {
		sw.fetchWall += fetchSample * time.Since(start)
	}
	if err != nil {
		return err
	}
	sw.prof.Fetched++ // successful fetches only
	if err := projectDiffs(table.Walk(sc.rec.Body, sw.kinds), sw.terms, sw.last, sw.m.NDFPenalty, sc.diffs); err != nil {
		return err
	}
	f := sw.ex.fetch(e.tid, sc.diffs)
	for i := range sc.diffs { // metric.Distance without the per-call weight lookups
		sc.diffs[i] *= sw.weights[i]
	}
	if kept := sw.pool.Insert(e.tid, sw.m.Combine(sc.diffs)); f != nil {
		f.kept = kept
	}
	if sw.pool.Full() {
		sw.bar.lower(sw.pool.MaxDist())
	}
	return nil
}

// projectDiffs walks a record for the exact differences d[A](T,Q) of the
// query's terms (parallel to diffs): what metric.TermDiff computes on the
// decoded tuple, from the record's bytes. Ids ascend, so the walk stops behind
// last, the largest queried id; the record's checksum has vouched for the
// bytes it skips, and damage to their structure is Scrub's to find.
func projectDiffs(w table.Walker, terms []termState, last model.AttrID, ndf float64, diffs []float64) error {
	fill(diffs, ndf)
	var f table.Field
	for w.Next(&f) && f.Attr <= last {
		for i := range terms {
			x := terms[i].exact
			switch {
			case x.Term.Attr != f.Attr:
			case x.Term.Kind != f.Kind:
				diffs[i] = ndf // defined with the other kind
			case f.Kind == model.KindNumeric:
				diffs[i] = x.Num(f.Num)
			default:
				diffs[i] = math.Inf(1)
				for rest := f.Strs; len(rest) > 0; {
					var s []byte
					s, rest = table.CutString(rest)
					diffs[i] = x.StrBytes(diffs[i], s)
				}
			}
		}
	}
	return w.Err()
}
