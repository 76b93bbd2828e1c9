package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/topk"
)

// TestDecodeBatchWidths round-trips a tuple list through loadTupleList, the
// one decoder of on-disk elements outside Check, at every tuple-id width — 25
// to 32 bits make an element wider than 64 — and holds decodeBatch over the
// mirror to the list as written: with no entry deleted, one at each position
// (first and last included) and all, over ranges that start and end off a
// byte boundary.
func TestDecodeBatchWidths(t *testing.T) {
	const entries = 37
	rng := rand.New(rand.NewSource(24))
	for ltid := 1; ltid <= 32; ltid++ {
		f := storage.NewFile(storage.NewPool(0, 1<<20), storage.NewMemDevice())
		segs := storage.NewSegStore(f, superblockSize)
		chain, err := segs.Create()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]tupleEntry, entries)
		w := bitio.NewWriter(0)
		for pos := range want {
			want[pos] = tupleEntry{tid: model.TID(rng.Uint64() >> (64 - uint(ltid))), ptr: int64(rng.Uint64() >> (64 - ptrBits))}
			w.WriteBits(uint64(want[pos].tid), ltid)
			w.WriteBits(uint64(want[pos].ptr), ptrBits)
		}
		bits, err := storage.AppendBits(segs, chain, 0, w.Bytes(), w.Len())
		if err != nil {
			t.Fatal(err)
		}
		ix := &Index{ltid: ltid, segs: segs, tupleChain: chain, tupleBits: bits}
		if err := ix.loadTupleList(entries); err != nil {
			t.Fatalf("ltid %d: %v", ltid, err)
		}
		if !slices.Equal(ix.entries, want) {
			t.Fatalf("ltid %d: loaded %v, wrote %v", ltid, ix.entries, want)
		}
		sc := scratchPool.Get().(*workerScratch)
		for dead := -1; dead <= entries; dead++ { // -1: none; entries: all
			for pos := range ix.entries {
				ix.entries[pos].deleted = pos == dead || dead == entries
			}
			for _, r := range [][2]int64{{0, entries}, {3, entries}, {0, 5}, {7, 30}, {entries - 1, entries}, {4, 4}} {
				n, j := sc.decodeBatch(ix, r[0], r[1]), 0
				for pos := r[0]; pos < r[1]; pos++ {
					if ix.entries[pos].deleted {
						continue
					}
					if j >= n || sc.tids[j] != want[pos].tid || sc.pos[j] != pos || sc.ptrs[j] != want[pos].ptr {
						t.Fatalf("ltid %d dead %d range %v: entry %d of %d does not hold position %d %+v", ltid, dead, r, j, n, pos, want[pos])
					}
					j++
				}
				if j != n {
					t.Fatalf("ltid %d dead %d range %v: %d live entries, want %d", ltid, dead, r, n, j)
				}
			}
		}
		sc.release()
		f.Close()
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
