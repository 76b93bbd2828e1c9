package iva

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// TestStoreReleasesPoolPins asserts the pin-leak invariant at the API
// surface: after any store operation returns, every buffer-pool pin taken by
// its readers has been released (iva_pool_pinned_frames must read 0 at
// quiesce). This is the regression test for the defer-time receiver bug
// where `defer rds.close()` on a value receiver snapshotted the empty
// reader set and leaked one pinned page per reader on every query.
func TestStoreReleasesPoolPins(t *testing.T) {
	s, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	assertNoPins := func(stage string) {
		t.Helper()
		if n := s.pool.PinnedFrames(); n != 0 {
			t.Fatalf("%s leaked %d pinned frames", stage, n)
		}
	}

	for i := 0; i < 200; i++ {
		if _, err := s.Insert(map[string]Value{
			"Type":  Strings("Digital Camera"),
			"Price": Num(float64(100 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	assertNoPins("insert+sync")

	q := NewQuery(5).WhereNum("Price", 150).WhereText("Type", "Camera")
	if _, _, err := s.Search(q); err != nil {
		t.Fatal(err)
	}
	assertNoPins("Search")

	if _, err := s.Explain(q); err != nil {
		t.Fatal(err)
	}
	assertNoPins("Explain")

	if _, err := s.Check(); err != nil {
		t.Fatal(err)
	}
	assertNoPins("Check")

	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Search(q); err != nil {
		t.Fatal(err)
	}
	assertNoPins("Delete+Rebuild+Search")
}

// storeTrippingCtx reports context.Canceled after Err has been polled
// threshold times, so a cancellation lands deterministically mid-query.
type storeTrippingCtx struct {
	context.Context
	polls     atomic.Int64
	threshold int64
}

func (c *storeTrippingCtx) Err() error {
	if c.polls.Add(1) > c.threshold {
		return context.Canceled
	}
	return nil
}

// TestSearchContextReleasesPoolPins extends the pin-leak invariant to the
// failing-query paths: a pre-cancelled SearchContext and a context tripped
// mid-query must both return ctx.Err() with zero frames left pinned, at
// every parallelism.
func TestSearchContextReleasesPoolPins(t *testing.T) {
	s, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 300; i++ {
		if _, err := s.Insert(map[string]Value{
			"Type":  Strings("Digital Camera"),
			"Price": Num(float64(100 + i%97)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery(5).WhereNum("Price", 150).WhereText("Type", "Camera")
	wantRes, _, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled: must fail before touching the device.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.pool.Stats().Snapshot()
	if _, _, err := s.SearchContext(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: got %v, want context.Canceled", err)
	}
	after := s.pool.Stats().Snapshot()
	if after.PhysReads != before.PhysReads || after.CacheHits != before.CacheHits {
		t.Fatalf("pre-cancelled ctx touched the pool: %+v -> %+v", before, after)
	}
	if n := s.pool.PinnedFrames(); n != 0 {
		t.Fatalf("pre-cancelled SearchContext leaked %d pins", n)
	}

	// Mid-query trips across the parallelism grid.
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		s.ix.SetSearchParallelism(par)
		for _, threshold := range []int64{1, 3, 5} {
			ctx := &storeTrippingCtx{Context: context.Background(), threshold: threshold}
			_, _, err := s.SearchContext(ctx, q)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d threshold=%d: got %v, want context.Canceled", par, threshold, err)
			}
			if n := s.pool.PinnedFrames(); n != 0 {
				t.Fatalf("par=%d threshold=%d: cancellation leaked %d pins", par, threshold, n)
			}
		}
	}

	// The store still answers correctly after all those aborted queries.
	s.ix.SetSearchParallelism(0)
	res, _, err := s.SearchContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(wantRes) {
		t.Fatalf("post-cancellation search returned %d results, want %d", len(res), len(wantRes))
	}
	for i := range res {
		if res[i].TID != wantRes[i].TID {
			t.Fatalf("post-cancellation result %d: got id %d, want %d", i, res[i].TID, wantRes[i].TID)
		}
	}
	if n := s.pool.PinnedFrames(); n != 0 {
		t.Fatalf("clean search leaked %d pins", n)
	}
}

// TestFailedReadsReleasePoolPins extends the invariant to the pinned record
// reader: a search whose refine step meets a corrupt record in the middle of
// its fetches, a Get of that record, a Scan that runs into it, and a record scan
// whose callback gives up all return their error with zero frames left pinned.
func TestFailedReadsReleasePoolPins(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	fillStore(t, s, rows)
	var ptrs []int64
	stop := errors.New("enough")
	err = s.tbl.ScanRecords(func(ptr int64, _ table.Walker) error {
		if ptrs = append(ptrs, ptr); len(ptrs) == rows/2+1 {
			return stop
		}
		return nil
	})
	if err != stop || s.pool.PinnedFrames() != 0 {
		t.Fatalf("abandoned record scan: err %v, %d pins", err, s.pool.PinnedFrames())
	}
	bad := ptrs[rows/2]
	// k = every tuple: the pool never fills, so every record is fetched, in
	// the order of their lower bounds; the corrupt one is met after rank good
	// fetches.
	q := NewQuery(rows).WhereNum("Price", 150).WhereText("Type", "Camera")
	ex, err := s.ix.ExplainSearch(s.resolveQuery(q), s.met)
	if err != nil {
		t.Fatal(err)
	}
	rank := slices.Index(ex.FetchOrder(), model.TID(rows/2))
	if rank <= 0 || rank >= rows-1 {
		t.Fatalf("the record is fetched at rank %d of %d, want one in the middle", rank, rows)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "table.swt")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[bad+12] ^= 0x04 // inside the body
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertCorrupt := func(stage string, err error) {
		t.Helper()
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Offset != bad {
			t.Fatalf("%s: got %v, want a corruption error on the record at %d", stage, err, bad)
		}
		if n := s.pool.PinnedFrames(); n != 0 {
			t.Fatalf("%s leaked %d pinned frames", stage, n)
		}
	}
	for _, par := range []int{1, 2} {
		s.ix.SetSearchParallelism(par)
		_, qs, err := s.Search(q)
		assertCorrupt("Search", err)
		if par == 1 && qs.TableAccesses != int64(rank) {
			t.Fatalf("the search failed after %d good fetches, want %d", qs.TableAccesses, rank)
		}
	}
	_, err = s.Get(TID(rows / 2))
	assertCorrupt("Get", err)
	assertCorrupt("Scan", s.Scan(func(TID, Row) bool { return true }))
	if _, err := s.Get(TID(rows/2 - 1)); err != nil {
		t.Fatalf("the record before the corrupt one: %v", err)
	}
}

// TestFailedSwapReleasesPoolPins extends the invariant to install's callers: a
// Full delta whose new pair fails half-way — the table written whole, the index
// cut off by its device at every budget up to the one the apply fits in —
// leaves no frame pinned, no file of the abandoned pair in the pool or the
// directory, and the old generation answering as before.
func TestFailedSwapReleasesPoolPins(t *testing.T) {
	base := t.TempDir()
	primary, err := Create(filepath.Join(base, "primary"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	q := fillStore(t, primary, 300)
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	var budget atomic.Int64
	budget.Store(-1)
	fdir := filepath.Join(base, "follower")
	src := &heldSource{inner: localSource{primary}}
	follower, err := openFollower(fdir, src, FollowerOptions{}, Options{
		deviceHook: func(name string, dev storage.Device) storage.Device {
			if name == indexFileName+newSuffix {
				return storage.NewFaultDevice(dev, budget.Load())
			}
			return dev
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	src.held.Store(true) // the poll loop stays out of the way
	want, _, err := follower.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullDelta(t, primary)
	failures := 0
	for b := int64(0); ; b++ {
		budget.Store(b)
		err := follower.ApplyReplDelta(snap)
		if n := follower.pool.PinnedFrames(); n != 0 {
			t.Fatalf("budget %d: %d frames left pinned (apply: %v)", b, n, err)
		}
		if n := follower.pool.Files(); n != 2 {
			t.Fatalf("budget %d: %d files in the pool, want the store's two (apply: %v)", b, n, err)
		}
		for _, name := range []string{tableFileName + newSuffix, indexFileName + newSuffix} {
			if _, serr := os.Stat(filepath.Join(fdir, name)); !os.IsNotExist(serr) {
				t.Fatalf("budget %d: %s left behind (apply: %v)", b, name, err)
			}
		}
		got, _, serr := follower.Search(q)
		if serr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: search after the apply (%v): %v %v, want %v", b, err, got, serr, want)
		}
		if err == nil {
			break
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("budget %d: apply failed with a non-injected error: %v", b, err)
		}
		failures++
	}
	if failures < 3 {
		t.Fatalf("only %d budgets failed: the sweep did not reach into the apply", failures)
	}
}
