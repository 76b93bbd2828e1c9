package core

import (
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// TestSearchAllocs is the allocation gate of the search hot path: a query
// allocates a bounded number of objects that does not grow with the tuples it
// scans or the candidates it fetches — only, by a few, with the stripes. Nor
// with the pages it misses: the cold variant runs the same queries over a pool
// of 16 pages, where every query reads its pages from the device into
// recycled frames.
func TestSearchAllocs(t *testing.T) {
	for _, poolPages := range []int64{0, 16} {
		searchAllocs(t, poolPages)
	}
}

func searchAllocs(t *testing.T, poolPages int64) {
	m := metric.Default()
	allocs := func(tuples int) float64 {
		fx := newFixture(t, tuples, Options{}, 77)
		ix := fx.ix
		if poolPages > 0 {
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			pool := storage.NewPool(0, poolPages*storage.DefaultPageSize)
			tbl, err := table.Open(storage.NewFile(pool, fx.tblDev), fx.tbl.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			if ix, err = Open(storage.NewFile(pool, fx.idxDev), tbl, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		ix.SetSearchParallelism(1)
		// A dense text attribute (Type III), a sparse one (tid-addressed) and
		// the dense numeric one (Type IV).
		q := (&model.Query{K: 10}).
			TextTerm(fx.textAttrs[0], fx.randWord()).
			TextTerm(fx.textAttrs[1], fx.randWord()).
			NumTerm(fx.numAttrs[0], 250)
		var stats SearchStats
		run := func() {
			var err error
			if _, stats, err = ix.Search(q, m); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the scratch pool, the codec's and the query's lazy tables
		n := testing.AllocsPerRun(20, run)
		if stats.Scanned != int64(tuples) || stats.TableAccesses < 10 {
			t.Fatalf("%d tuples: scanned %d, fetched %d", tuples, stats.Scanned, stats.TableAccesses)
		}
		if cold := stats.FilterIO.PhysReads > 0 && stats.RefineIO.PhysReads > 0; cold != (poolPages > 0) {
			t.Fatalf("%d tuples, pool of %d pages: %d + %d physical reads in the last query", tuples, poolPages, stats.FilterIO.PhysReads, stats.RefineIO.PhysReads)
		}
		t.Logf("pool %d pages, %d tuples: %.0f allocs/query, %d fetched, %d pages read", poolPages, tuples, n, stats.TableAccesses, stats.FilterIO.PhysReads+stats.RefineIO.PhysReads)
		return n
	}
	small, large := allocs(2048), allocs(8192)
	if d := large - small; d > 16 || d < -16 {
		t.Errorf("pool %d pages: allocations grow with the data: %.0f at 2,048 tuples, %.0f at 8,192", poolPages, small, large)
	}
	if !raceEnabled && large > 400 {
		t.Errorf("pool %d pages: %.0f allocations per query at 8,192 tuples, want <= 400", poolPages, large)
	}
}

// TestInsertAllocs is the allocation gate of the write path, on the loop of
// BenchmarkInsert (the row's own map and strings included): a run of one
// encodes into the index's reusable writers, so inserting through the batch
// routine costs no more than the single-row routine it replaced (60).
func TestInsertAllocs(t *testing.T) {
	fx := newFixture(t, 100, Options{TIDHeadroom: 1 << 24}, 201)
	n := testing.AllocsPerRun(2000, func() {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs/insert", n)
	if !raceEnabled && n > 60 {
		t.Errorf("%.1f allocations per insert, want <= 60", n)
	}
}

// rebuildOnce compacts the fixture's table and builds an index over the copy,
// the two passes of a store rebuild.
func rebuildOnce(tb testing.TB, fx *fixture) {
	nt, err := fx.tbl.Rebuild(storage.NewFile(fx.pool, storage.NewMemDevice()), func(model.TID) bool { return true })
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := Build(nt, storage.NewFile(fx.pool, storage.NewMemDevice()), Options{}); err != nil {
		tb.Fatal(err)
	}
}

// TestBuildAllocs is the allocation gate of the build path: what a rebuild
// allocates beyond its fixed per-attribute set-up grows with the pages and
// stripes it writes, not with the values it encodes — a small fraction of an
// allocation per tuple, the same at any table size. (The parent allocated
// about seventy objects per tuple: a map, a string per value and per gram.)
func TestBuildAllocs(t *testing.T) {
	allocs := func(tuples int) float64 {
		fx := newFixture(t, tuples, Options{}, 78)
		rebuildOnce(t, fx) // fills the codec's lazy (l, t) table
		n := testing.AllocsPerRun(3, func() { rebuildOnce(t, fx) })
		t.Logf("%d tuples: %.0f allocs/rebuild", tuples, n)
		return n
	}
	small, mid, large := allocs(2048), allocs(4096), allocs(8192)
	perTuple, perTupleLarge := (mid-small)/2048, (large-mid)/4096
	if d := perTupleLarge - perTuple; d > 0.1 || d < -0.1 {
		t.Errorf("allocations per added tuple depend on the table size: %.3f from 2,048 to 4,096 tuples, %.3f from 4,096 to 8,192", perTuple, perTupleLarge)
	}
	if !raceEnabled && perTupleLarge > 0.25 {
		t.Errorf("%.3f allocations per rebuilt tuple, want <= 0.25", perTupleLarge)
	}
}

// BenchmarkBuild measures one rebuild — table compaction plus index build —
// of an 8,192-tuple table.
func BenchmarkBuild(b *testing.B) {
	const tuples = 8192
	fx := newFixture(b, tuples, Options{}, 79)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuildOnce(b, fx)
	}
	b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}
