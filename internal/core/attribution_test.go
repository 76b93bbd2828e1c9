package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
)

// datasetIndex builds the paper-statistics table of internal/dataset and its
// index, with the query stream of §V-A over it.
func datasetIndex(t testing.TB, tuples, queries int, opts Options) (*Index, []*model.Query) {
	t.Helper()
	gen := dataset.New(dataset.Config{Tuples: tuples, Seed: 42})
	pool := storage.NewPool(0, 64<<20)
	tbl, err := table.New(storage.NewFile(pool, storage.NewMemDevice()), table.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := gen.Populate(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tbl, storage.NewFile(pool, storage.NewMemDevice()), opts)
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := gen.Queries(dataset.QueryConfig{Count: queries, Warm: -1, Seed: 42}, ids)
	return ix, qs
}

// TestFetchAttribution is an instrument, and a test only of its own
// bookkeeping: it reads the table accesses of an explained search — the
// one-worker fetch sequence over the dataset's query stream, each fetch with
// its per-term bounds and exact differences — and,
// for every tuple that was fetched and then rejected (a wasted table access),
// asks which term kind's slack caused it: the fetch is owned by a kind when
// replacing the lower bounds of that kind's terms alone by their exact
// differences would have kept the tuple out. The table it logs (-v) is what
// EXPERIMENTS.md "A tuple costs what it must" and ROADMAP item 1 quote. It
// fails only when the records disagree with the search itself on the number
// of fetches, on what the pool kept, or on the answer. (Figures at 10,000
// tuples: 907.9 fetches per query, mean text bound 4.00 under the parent's
// "t clear bits per gram" signatures; 882.4 and 5.10 under format word 8's
// plain OR, mean exact edit distance 15.41 on both; 644.8 and 5.10 once each
// stripe seeds its k lowest bounds and the rest is swept in tuple order, with
// a floor of 585.1 — the fetches whose bound is below the final k-th
// distance; 473.5 and 7.54, floor 433.4, once cH holds a character histogram
// (index word 11).)
func TestFetchAttribution(t *testing.T) {
	tuples, queries := 10000, 100
	if testing.Short() {
		tuples, queries = 2000, 20
	}
	ix, qs := datasetIndex(t, tuples, queries, Options{SearchParallelism: 1})
	m := metric.Default()

	type kindStats struct {
		terms               int64 // defined terms of wasted fetches
		est, exact          float64
		owned               int64 // wasted fetches this kind alone would have pruned
		exactBound, boundLT int64
	}
	var (
		byKind                              = map[model.Kind]*kindStats{model.KindText: {}, model.KindNumeric: {}}
		fetched, useful, wasted, tie, joint int64
		either                              int64 // either kind alone suffices
		floor                               int64 // fetches any exact plan makes: bound below the final k-th distance
	)
	for qi, q := range qs {
		want, stats, err := ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ix.ExplainSearch(q, m)
		if err != nil {
			t.Fatal(err)
		}
		weights := m.Weights(q.Terms)
		mixed := make([]float64, len(q.Terms))
		dist := func(diffs []float64) float64 {
			for i := range diffs {
				mixed[i] = diffs[i] * weights[i]
			}
			return m.Combine(mixed)
		}
		// The pool the search kept, rebuilt from the records: with one worker
		// it was offered exactly these tuples, in this order.
		pool := topk.New(q.K)
		for _, f := range ex.fetches {
			if f.est < ex.PoolMaxFinal {
				floor++
			}
			d := dist(f.exact)
			if pool.Full() && d == pool.MaxDist() && f.est == d {
				tie++ // bound equal to the bar, lost (or won) on the tid
			}
			kept := pool.Insert(f.tid, d)
			if kept != f.kept {
				t.Fatalf("query %d: tuple %d kept=%v by the records' pool, %v by the search's", qi, f.tid, kept, f.kept)
			}
			if kept {
				useful++
				continue
			}
			wasted++
			for i, term := range q.Terms {
				if !f.defined[i] {
					continue // the ndf penalty is exact
				}
				ks := byKind[term.Kind]
				ks.terms++
				ks.est += f.bounds[i]
				ks.exact += f.exact[i]
				if f.bounds[i] == f.exact[i] {
					ks.exactBound++
				} else {
					ks.boundLT++
				}
			}
			owners := map[model.Kind]bool{}
			for kind := range byKind {
				one := append([]float64(nil), f.bounds...)
				for i, term := range q.Terms {
					if term.Kind == kind {
						one[i] = f.exact[i]
					}
				}
				if !pool.AdmitsPair(f.tid, dist(one)) {
					owners[kind] = true
				}
			}
			switch {
			case len(owners) == 2:
				either++
			case len(owners) == 0:
				joint++
			default:
				for k := range owners {
					byKind[k].owned++
				}
			}
		}
		if n := int64(len(ex.fetches)); n != stats.TableAccesses || n != ex.Fetched {
			t.Fatalf("query %d: %d fetch records, the search fetched %d (explain %d)", qi, n, stats.TableAccesses, ex.Fetched)
		}
		if got := pool.Results(); !sameResults(got, want) || !sameResults(ex.Results, want) {
			t.Fatalf("query %d: the records' answer differs from the search's", qi)
		}
		fetched += int64(len(ex.fetches))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d tuples, %d queries: %d fetches (%.1f per query; floor %.1f), %d kept, %d wasted (%.1f%%), bound-equals-bar ties %d\n",
		tuples, len(qs), fetched, float64(fetched)/float64(len(qs)), float64(floor)/float64(len(qs)), useful, wasted, 100*float64(wasted)/float64(fetched), tie)
	fmt.Fprintf(&b, "%-8s %12s %8s %10s %10s %12s %12s\n", "kind", "owns wasted", "share", "mean est", "mean exact", "est = exact", "est < exact")
	for _, k := range []model.Kind{model.KindText, model.KindNumeric} {
		ks := byKind[k]
		n := float64(max(ks.terms, 1))
		fmt.Fprintf(&b, "%-8s %12d %7.2f%% %10.4f %10.4f %12d %12d\n", k, ks.owned,
			100*float64(ks.owned)/float64(max(wasted, 1)), ks.est/n, ks.exact/n, ks.exactBound, ks.boundLT)
	}
	fmt.Fprintf(&b, "%-8s %12d %7.2f%%   (either kind alone suffices)\n", "either", either, 100*float64(either)/float64(max(wasted, 1)))
	fmt.Fprintf(&b, "%-8s %12d %7.2f%%   (only both kinds' exact differences prune it)\n", "joint", joint, 100*float64(joint)/float64(max(wasted, 1)))
	t.Log("\n" + b.String())
	if sum := byKind[model.KindText].owned + byKind[model.KindNumeric].owned + either + joint; sum != wasted {
		t.Fatalf("attributed %d of %d wasted fetches", sum, wasted)
	}
}
