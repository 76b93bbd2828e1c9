package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// trippingCtx reports context.Canceled after its Err method has been polled
// threshold times — a deterministic stand-in for a context cancelled
// mid-query, independent of scheduler timing.
type trippingCtx struct {
	context.Context
	polls     atomic.Int64
	threshold int64
}

func (c *trippingCtx) Err() error {
	if c.polls.Add(1) > c.threshold {
		return context.Canceled
	}
	return nil
}

// TestSearchContextCancellation covers the query-lifecycle contract: an
// already-expired context fails before any device read, a context cancelled
// mid-scan stops the query with ctx.Err() at every parallelism, and neither
// path leaks a pinned buffer-pool frame.
func TestSearchContextCancellation(t *testing.T) {
	cf := buildCorruptionFixture(t)
	cf.restore(t)
	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	defer tblF.Close()
	defer idxF.Close()
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(idxF, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cf.queries[0]

	// Pre-expired: the pre-dispatch check must fire before any page is
	// requested from the pool.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	before := pool.Stats().Snapshot()
	if _, _, err := ix.SearchContext(expired, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: got %v, want context.Canceled", err)
	}
	after := pool.Stats().Snapshot()
	if after.PhysReads != before.PhysReads || after.CacheHits != before.CacheHits {
		t.Fatalf("expired ctx touched the device: %+v -> %+v", before, after)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("expired ctx leaked %d pins", n)
	}

	// Mid-query: trip after a few polls so the cancellation lands inside
	// the scan (workers poll at every stripe claim, per 1024 positions and
	// per refine fetch).
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		ix.SetSearchParallelism(par)
		for _, threshold := range []int64{1, 2, 4} {
			ctx := &trippingCtx{Context: context.Background(), threshold: threshold}
			_, _, err := ix.SearchContext(ctx, q, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d threshold=%d: got %v, want context.Canceled", par, threshold, err)
			}
			if n := pool.PinnedFrames(); n != 0 {
				t.Fatalf("par=%d threshold=%d: cancellation leaked %d pins", par, threshold, n)
			}
		}
	}

	// Sanity: with no cancellation the same index still answers.
	ix.SetSearchParallelism(0)
	res, _, err := ix.SearchContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(res, cf.baseline[0]) {
		t.Fatal("post-cancellation search diverged from baseline")
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("clean search leaked %d pins", n)
	}
}

// TestCorruptionReleasesPins asserts that queries degrading on checksum
// mismatches release every pinned frame, at every parallelism.
func TestCorruptionReleasesPins(t *testing.T) {
	cf := buildCorruptionFixture(t)
	// Locate a committed vector-list byte from a clean open: corruption
	// there is degradable, so the full query grid runs.
	cf.restore(t)
	probePool := storage.NewPool(0, 1<<20)
	probeTblF := storage.NewFile(probePool, cf.tblDev)
	probeIdxF := storage.NewFile(probePool, cf.idxDev)
	probeTbl, err := table.Open(probeTblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	probeIx, err := Open(probeIdxF, probeTbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exts := probeIx.VectorExtents()
	if len(exts) == 0 {
		t.Fatal("fixture has no committed vector extents")
	}
	off := exts[0].Offset + exts[0].Len/2
	probeTblF.Close()
	probeIdxF.Close()

	cf.restore(t)
	cf.flip(t, off, 3)
	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(idxF, tbl, Options{})
	if err == nil {
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			ix.SetSearchParallelism(par)
			for qi, q := range cf.queries {
				res, _, err := ix.Search(q, nil)
				if err == nil && !sameResults(res, cf.baseline[qi]) {
					t.Fatalf("par=%d query %d: silently different results", par, qi)
				}
				if n := pool.PinnedFrames(); n != 0 {
					t.Fatalf("par=%d query %d leaked %d pins", par, qi, n)
				}
			}
		}
	}
	tblF.Close()
	idxF.Close()
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("close left %d pins", n)
	}
	cf.restore(t)
}

// TestPlanSingleStripeCancels covers the deadline poll inside a stripe: with
// no checkpoints the whole tuple list is one stripe, so the poll at the
// stripe claim fires once and only the poll at the head of every batch — at
// most 1,024 positions apart — can stop the filter phase. Refines wait for
// the stripe's end (its 4,500 entries stay under deferCap, so the deferred
// list is not drained early), so the context trips at the third batch head,
// after the dispatch check, the stripe claim and two batch heads — a scan that
// polled nowhere else would filter every tuple before its first refine polled.
func TestPlanSingleStripeCancels(t *testing.T) {
	fx := newFixture(t, 4500, Options{}, 311)
	dropCheckpoints(fx.ix)
	q := fx.randQuery(t, 2, 5)
	live := fx.ix.Entries() - fx.ix.Deleted()
	if live > deferCap-batchSize {
		t.Fatalf("%d live entries fill the deferred list before the stripe ends", live)
	}
	for _, par := range []int{1, 8} {
		fx.ix.SetSearchParallelism(par)
		ctx := &trippingCtx{Context: context.Background(), threshold: 4}
		_, stats, err := fx.ix.SearchContext(ctx, q, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: got %v, want context.Canceled", par, err)
		}
		if stats.Scanned >= live {
			t.Fatalf("par=%d: cancelled scan still filtered all %d live tuples", par, live)
		}
		if batchSize > 1024 || stats.Scanned != 2*batchSize {
			t.Fatalf("par=%d: scan of %d-position batches stopped after %d tuples, want two batches, at most 1,024 positions apart",
				par, batchSize, stats.Scanned)
		}
		if n := fx.pool.PinnedFrames(); n != 0 {
			t.Fatalf("par=%d: cancellation leaked %d pins", par, n)
		}
	}
}

// TestPlanCancelledSearchLeavesNoDeferredEntries cancels a search while its
// deferred list is full — at a batch head of its one stripe, and in the middle
// of the stripe's seed — then runs a different query on the same index. A
// list the cancelled search left behind in the pooled scratch would be
// refined by the next search on that scratch: its answer must still equal
// brute force, every scanned tuple must be fetched or credited as pruned
// exactly once, and no frame may stay pinned.
func TestPlanCancelledSearchLeavesNoDeferredEntries(t *testing.T) {
	fx := newFixture(t, 4500, Options{}, 313)
	dropCheckpoints(fx.ix)
	cancelled, next := fx.randQuery(t, 2, 5), fx.randQuery(t, 2, 8)
	want := bruteForce(t, fx, next, metric.Default())
	batches := (fx.ix.Entries() + batchSize - 1) / batchSize
	// Polls: the dispatch check, the stripe claim, one per batch head, one
	// per fetch.
	for _, threshold := range []int64{4, 2 + batches + 3} {
		for _, par := range []int{1, 2} {
			fx.ix.SetSearchParallelism(par)
			ctx := &trippingCtx{Context: context.Background(), threshold: threshold}
			if _, _, err := fx.ix.SearchContext(ctx, cancelled, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("threshold %d par %d: got %v, want context.Canceled", threshold, par, err)
			}
			got, st, err := fx.ix.Search(next, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalResults(got, want) {
				t.Fatalf("threshold %d par %d: after a cancelled search\n got %v\nwant %v", threshold, par, got, want)
			}
			pruned := int64(0)
			for _, ts := range st.Terms {
				pruned += ts.Pruned
			}
			if pruned+st.TableAccesses != st.Scanned {
				t.Fatalf("threshold %d par %d: %d pruned + %d fetched of %d scanned", threshold, par, pruned, st.TableAccesses, st.Scanned)
			}
			if n := fx.pool.PinnedFrames(); n != 0 {
				t.Fatalf("threshold %d par %d: %d pinned frames", threshold, par, n)
			}
		}
	}
}
