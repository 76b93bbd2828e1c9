package core

import (
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
)

// TestSearchAllocs is the allocation gate of the search hot path: a query
// allocates a bounded number of objects that does not grow with the tuples it
// scans or the candidates it fetches — only, by a few, with the stripes.
func TestSearchAllocs(t *testing.T) {
	m := metric.Default()
	allocs := func(tuples int) float64 {
		fx := newFixture(t, tuples, Options{}, 77)
		fx.ix.SetSearchParallelism(1)
		// A dense text attribute (Type III), a sparse one (tid-addressed) and
		// the dense numeric one (Type IV).
		q := (&model.Query{K: 10}).
			TextTerm(fx.textAttrs[0], fx.randWord()).
			TextTerm(fx.textAttrs[1], fx.randWord()).
			NumTerm(fx.numAttrs[0], 250)
		var stats SearchStats
		run := func() {
			var err error
			if _, stats, err = fx.ix.Search(q, m); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the scratch pool, the codec's and the query's lazy tables
		n := testing.AllocsPerRun(20, run)
		if stats.Scanned != int64(tuples) || stats.TableAccesses < 10 {
			t.Fatalf("%d tuples: scanned %d, fetched %d", tuples, stats.Scanned, stats.TableAccesses)
		}
		t.Logf("%d tuples: %.0f allocs/query, %d fetched", tuples, n, stats.TableAccesses)
		return n
	}
	small, large := allocs(2048), allocs(8192)
	if d := large - small; d > 16 || d < -16 {
		t.Errorf("allocations grow with the data: %.0f at 2,048 tuples, %.0f at 8,192", small, large)
	}
	if !raceEnabled && large > 400 {
		t.Errorf("%.0f allocations per query at 8,192 tuples, want <= 400", large)
	}
}
