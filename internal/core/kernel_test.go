package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/topk"
)

// decodeBatchReference is decodeBatch as it was before the one-read form: two
// reads per entry at every tuple-id width.
func decodeBatchReference(tr *storage.ChainBitReader, ltid int, pos, end int64) (tids []model.TID, poss, ptrs []int64, err error) {
	if err := tr.SeekBit(pos * int64(ltid+ptrBits)); err != nil {
		return nil, nil, nil, err
	}
	for ; pos < end; pos++ {
		tid, err := tr.ReadBits(ltid)
		if err != nil {
			return nil, nil, nil, err
		}
		ptr, err := tr.ReadBits(ptrBits)
		if err != nil {
			return nil, nil, nil, err
		}
		if ptr == tombstonePtr {
			continue
		}
		tids, poss, ptrs = append(tids, model.TID(tid)), append(poss, pos), append(ptrs, int64(ptr))
	}
	return tids, poss, ptrs, nil
}

// TestDecodeBatchWidths holds decodeBatch equal to the two-read decoder at
// every tuple-id width — 1 to 24 bits take the one-read form, 25 to 32 the
// two-read one — over tuple lists with no tombstone, one at each position
// (first and last included) and one at every position, decoding ranges that
// start and end off a byte boundary.
func TestDecodeBatchWidths(t *testing.T) {
	const entries = 37
	rng := rand.New(rand.NewSource(24))
	for ltid := 1; ltid <= 32; ltid++ {
		for dead := -1; dead <= entries; dead++ { // -1: none; entries: all
			f := storage.NewFile(storage.NewPool(0, 1<<20), storage.NewMemDevice())
			segs := storage.NewSegStore(f, superblockSize)
			chain, err := segs.Create()
			if err != nil {
				t.Fatal(err)
			}
			w := bitio.NewWriter(0)
			for pos := 0; pos < entries; pos++ {
				w.WriteBits(rng.Uint64()>>(64-uint(ltid)), ltid)
				ptr := rng.Uint64() >> (64 - ptrBits)
				if pos == dead || dead == entries || ptr == tombstonePtr {
					ptr = tombstonePtr
				}
				w.WriteBits(ptr, ptrBits)
			}
			bits, err := storage.AppendBits(segs, chain, 0, w.Bytes(), w.Len())
			if err != nil {
				t.Fatal(err)
			}
			ix := &Index{ltid: ltid}
			sc := scratchPool.Get().(*workerScratch)
			sc.tupleRd = storage.NewChainBitReader(segs, chain, bits)
			ref := storage.NewChainBitReader(segs, chain, bits)
			for _, r := range [][2]int64{{0, entries}, {3, entries}, {0, 5}, {7, 30}, {entries - 1, entries}, {4, 4}} {
				n, err := sc.decodeBatch(ix, r[0], r[1])
				tids, poss, ptrs, refErr := decodeBatchReference(ref, ltid, r[0], r[1])
				if err != nil || refErr != nil {
					t.Fatalf("ltid %d dead %d range %v: %v / reference %v", ltid, dead, r, err, refErr)
				}
				if n != len(tids) {
					t.Fatalf("ltid %d dead %d range %v: %d live entries, reference %d", ltid, dead, r, n, len(tids))
				}
				for j := 0; j < n; j++ {
					if sc.tids[j] != tids[j] || sc.pos[j] != poss[j] || sc.ptrs[j] != ptrs[j] {
						t.Fatalf("ltid %d dead %d range %v entry %d: (%d, %d, %d), reference (%d, %d, %d)",
							ltid, dead, r, j, sc.tids[j], sc.pos[j], sc.ptrs[j], tids[j], poss[j], ptrs[j])
					}
				}
			}
			ref.Close()
			sc.release()
			f.Close()
		}
	}
}

// BenchmarkScanBatch prices the filter loop with the refine taken out: decode
// a batch, fill every term's column, combine, walk the estimates and credit
// the prunes — against a pool no estimate can enter, so nothing is fetched.
// ns/tuple is the per-tuple cost of everything around Algorithm 1's fetches.
func BenchmarkScanBatch(b *testing.B) {
	fx := newFixture(b, 8*batchSize, Options{}, 24)
	ix, q, m := fx.ix, fx.randQuery(b, 3, 10), metric.Default()
	plan := ix.planShape()
	terms, err := ix.prepareTerms(q)
	if err != nil {
		b.Fatal(err)
	}
	var bar distBar
	bar.init()
	sw := &stripeWorker{
		ix: ix, ctx: context.Background(), m: m, weights: m.Weights(q.Terms), plan: &plan,
		terms: terms, pool: topk.New(1), bar: &bar, next: new(atomic.Int64), abort: new(atomic.Bool),
		degSegs: make(map[uint32]struct{}), scratch: scratchPool.Get().(*workerScratch),
	}
	defer sw.scratch.release()
	sw.scratch.forTerms(len(terms))
	sw.scratch.tupleRd = ix.reopen(sw.scratch.tupleRd, ix.tupleChain, ix.tupleBits)
	sw.pool.Insert(0, -1) // lower bounds are ≥ 0: every entry is pruned

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range plan.ckpts {
			if err := sw.scanStripe(int64(s)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if sw.prof.Fetched != 0 || sw.prof.Scanned == 0 {
		b.Fatalf("scanned %d, fetched %d: want a scan without fetches", sw.prof.Scanned, sw.prof.Fetched)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sw.prof.Scanned), "ns/tuple")
}

// errCountingCtx counts the Err calls a search makes on a real cancellable
// context.
type errCountingCtx struct {
	context.Context
	errCalls atomic.Int64
}

func (c *errCountingCtx) Err() error {
	c.errCalls.Add(1)
	return c.Context.Err()
}

// cancellingWeighter cancels the query's context from inside the search:
// weights are resolved after the pre-dispatch check and before any worker
// polls.
type cancellingWeighter struct{ cancel context.CancelFunc }

func (w cancellingWeighter) Weight(model.AttrID) float64 { w.cancel(); return 1 }
func (cancellingWeighter) Name() string                  { return "cancelling" }

// TestCancelPollsDoneChannel pins how workers poll a cancellable context:
// through its Done channel — Err, which takes the context's mutex, is called
// once before dispatch and then only to fetch the error after Done has closed
// — and that a context cancelled after dispatch still stops the query at the
// first poll, at every parallelism.
func TestCancelPollsDoneChannel(t *testing.T) {
	fx := newFixture(t, 3*2048, Options{}, 24)
	q := fx.randQuery(t, 3, 10)
	for _, par := range []int{1, 2} {
		fx.ix.SetSearchParallelism(par)
		inner, cancel := context.WithCancel(context.Background())
		ctx := &errCountingCtx{Context: inner}
		_, st, err := fx.ix.SearchContext(ctx, q, nil)
		if err != nil || st.TableAccesses == 0 {
			t.Fatalf("par %d: %v, %d fetches", par, err, st.TableAccesses)
		}
		if n := ctx.errCalls.Load(); n != 1 {
			t.Errorf("par %d: an uncancelled search over %d fetches called Err %d times, want 1 (before dispatch)", par, st.TableAccesses, n)
		}
		m := metric.New(metric.L2{}, cancellingWeighter{cancel})
		_, st, err = fx.ix.SearchContext(ctx, q, m)
		if !errors.Is(err, context.Canceled) || st.Scanned != 0 {
			t.Errorf("par %d: cancelled after dispatch: %v with %d tuples scanned, want context.Canceled with none", par, err, st.Scanned)
		}
		if n := fx.pool.PinnedFrames(); n != 0 {
			t.Errorf("par %d: %d pinned frames after cancellation", par, n)
		}
	}
}
