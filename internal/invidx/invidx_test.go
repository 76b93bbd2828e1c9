package invidx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/scan"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

type fixture struct {
	pool *storage.Pool
	tbl  *table.Table
	ix   *Index
	dst  *scan.Scanner

	textAttrs []model.AttrID
	numAttrs  []model.AttrID
	rng       *rand.Rand
}

var words = []string{
	"digital camera", "job position", "music album", "canon", "sony",
	"google", "computer", "software", "wide-angle", "telephoto",
}

func newFixture(t testing.TB, tuples int, seed int64) *fixture {
	t.Helper()
	fx := &fixture{
		pool: storage.NewPool(0, 10<<20),
		rng:  rand.New(rand.NewSource(seed)),
	}
	cat := table.NewCatalog()
	tbl, err := table.New(storage.NewFile(fx.pool, storage.NewMemDevice()), cat)
	if err != nil {
		t.Fatal(err)
	}
	fx.tbl = tbl
	for i := 0; i < 8; i++ {
		id, _ := cat.AddAttr(fmt.Sprintf("t%d", i), model.KindText)
		fx.textAttrs = append(fx.textAttrs, id)
	}
	for i := 0; i < 3; i++ {
		id, _ := cat.AddAttr(fmt.Sprintf("n%d", i), model.KindNumeric)
		fx.numAttrs = append(fx.numAttrs, id)
	}
	for i := 0; i < tuples; i++ {
		if _, _, err := tbl.Append(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(tbl, storage.NewFile(fx.pool, storage.NewMemDevice()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx.ix = ix
	dst, err := scan.New(tbl)
	if err != nil {
		t.Fatal(err)
	}
	fx.dst = dst
	return fx
}

func (fx *fixture) randValues() map[model.AttrID]model.Value {
	vals := make(map[model.AttrID]model.Value)
	n := 1 + fx.rng.Intn(4)
	for j := 0; j < n; j++ {
		if fx.rng.Intn(3) == 0 {
			vals[fx.numAttrs[fx.rng.Intn(len(fx.numAttrs))]] = model.Num(float64(fx.rng.Intn(1000)))
		} else {
			vals[fx.textAttrs[fx.rng.Intn(len(fx.textAttrs))]] = model.Text(words[fx.rng.Intn(len(words))])
		}
	}
	return vals
}

func (fx *fixture) randQuery(t testing.TB, nvals, k int) *model.Query {
	t.Helper()
	q := &model.Query{K: k}
	seen := map[model.AttrID]bool{}
	for len(q.Terms) < nvals {
		pos := fx.rng.Int63n(fx.ix.Entries())
		e := fx.ix.entries[pos]
		if e.deleted {
			continue
		}
		tp, err := fx.tbl.Fetch(e.ptr)
		if err != nil {
			t.Fatal(err)
		}
		attrs := tp.Attrs()
		a := attrs[fx.rng.Intn(len(attrs))]
		if seen[a] {
			continue
		}
		seen[a] = true
		v := tp.Values[a]
		if v.Kind == model.KindNumeric {
			q.NumTerm(a, v.Num)
		} else {
			q.TextTerm(a, v.Strs[0])
		}
	}
	return q
}

func sameDistances(a, b []model.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// TestSIIMatchesDST is the correctness anchor: both methods are exact, so
// their top-k distance sequences must agree on every query and metric.
func TestSIIMatchesDST(t *testing.T) {
	fx := newFixture(t, 300, 51)
	for _, m := range []*metric.Metric{
		metric.New(metric.L1{}, metric.Equal{}),
		metric.New(metric.L2{}, metric.Equal{}),
		metric.New(metric.LInf{}, metric.Equal{}),
	} {
		for trial := 0; trial < 20; trial++ {
			q := fx.randQuery(t, 1+fx.rng.Intn(3), 1+fx.rng.Intn(12))
			got, _, err := fx.ix.Search(q, m)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := fx.dst.Search(q, m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDistances(got, want) {
				t.Fatalf("%s trial %d: SII %v != DST %v", m.Name(), trial, got, want)
			}
		}
	}
}

func TestSIIAllNDFAdmission(t *testing.T) {
	// A query on an attribute almost nobody defines must still return k
	// results, padding with all-ndf tuples at the constant distance.
	fx := newFixture(t, 100, 52)
	rare, _ := fx.tbl.Catalog().AddAttr("rare", model.KindText)
	if _, err := fx.ix.Insert(map[model.AttrID]model.Value{rare: model.Text("unique")}); err != nil {
		t.Fatal(err)
	}
	m := metric.Default()
	q := (&model.Query{K: 5}).TextTerm(rare, "unique")
	got, stats, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d results, want 5", len(got))
	}
	if got[0].Dist != 0 {
		t.Fatalf("exact match not first: %v", got[0])
	}
	for _, r := range got[1:] {
		if r.Dist != m.AllNDFDistance(q) {
			t.Fatalf("pad result at %v, want all-ndf %v", r.Dist, m.AllNDFDistance(q))
		}
	}
	// Only the single candidate should have been fetched.
	if stats.TableAccesses != 1 {
		t.Fatalf("TableAccesses = %d, want 1", stats.TableAccesses)
	}
}

func TestSIIInsertDeleteUpdate(t *testing.T) {
	fx := newFixture(t, 150, 53)
	m := metric.Default()
	for i := 0; i < 40; i++ {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	// The two engines share one table, so drive inserts through SII only
	// and refresh DST's view afterwards.
	dst, err := scan.New(fx.tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		tid := model.TID(fx.rng.Intn(150))
		errIx := fx.ix.Delete(tid)
		errDst := dst.Delete(tid)
		if (errIx == nil) != (errDst == nil) {
			t.Fatalf("delete disagreement on %d: %v vs %v", tid, errIx, errDst)
		}
	}
	for trial := 0; trial < 10; trial++ {
		q := fx.randQuery(t, 2, 8)
		got, _, err := fx.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := dst.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDistances(got, want) {
			t.Fatalf("trial %d after updates: %v != %v", trial, got, want)
		}
	}
}

func TestSIIOpenRoundTrip(t *testing.T) {
	pool := storage.NewPool(0, 10<<20)
	cat := table.NewCatalog()
	tblDev := storage.NewMemDevice()
	idxDev := storage.NewMemDevice()
	tbl, _ := table.New(storage.NewFile(pool, tblDev), cat)
	a, _ := cat.AddAttr("x", model.KindText)
	for i := 0; i < 30; i++ {
		tbl.Append(map[model.AttrID]model.Value{a: model.Text(words[i%len(words)])})
	}
	ix, err := Build(tbl, storage.NewFile(pool, idxDev), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Delete(3)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	tbl2, err := table.Open(storage.NewFile(pool, tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(storage.NewFile(pool, idxDev), tbl2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Entries() != 30 || ix2.Deleted() != 1 {
		t.Fatalf("reopened: entries=%d deleted=%d", ix2.Entries(), ix2.Deleted())
	}
	m := metric.Default()
	q := (&model.Query{K: 3}).TextTerm(a, "canon")
	got, _, err := ix2.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := ix.Search(q, m)
	if !sameDistances(got, want) {
		t.Fatalf("reopened results differ")
	}

	// The reopened index keeps accepting updates, including on an
	// attribute registered after the build.
	b, _ := cat.AddAttr("fresh", model.KindNumeric)
	tid, err := ix2.Insert(map[model.AttrID]model.Value{
		a: model.Text("canon"),
		b: model.Num(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ix2.Search((&model.Query{K: 1}).NumTerm(b, 7), m)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].TID != tid || res[0].Dist != 0 {
		t.Fatalf("post-reopen insert not found: %v", res)
	}
	if err := ix2.Delete(tid); err != nil {
		t.Fatal(err)
	}
	if err := ix2.Delete(tid); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
}

// TestSIIDeletedCountsMarks: a deletion marks its directory entry in place
// before any Sync, so an index reopened without one counts the marks it
// reads: one deleted entry among 30, and the deleted tid no longer live.
func TestSIIDeletedCountsMarks(t *testing.T) {
	cat := table.NewCatalog()
	tblDev, idxDev := storage.NewMemDevice(), storage.NewMemDevice()
	pool := storage.NewPool(0, 10<<20)
	tbl, _ := table.New(storage.NewFile(pool, tblDev), cat)
	a, _ := cat.AddAttr("x", model.KindText)
	for i := 0; i < 30; i++ {
		tbl.Append(map[model.AttrID]model.Value{a: model.Text(words[i%len(words)])})
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tbl, storage.NewFile(pool, idxDev), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}

	pool2 := storage.NewPool(0, 10<<20)
	tbl2, err := table.Open(storage.NewFile(pool2, tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(storage.NewFile(pool2, idxDev), tbl2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Entries() != 30 || ix2.Deleted() != 1 {
		t.Fatalf("reopened without Sync: entries=%d deleted=%d, want 30 and 1", ix2.Entries(), ix2.Deleted())
	}
	if err := ix2.Delete(3); err != ErrNotFound {
		t.Fatalf("delete of the marked tid after reopen: %v, want ErrNotFound", err)
	}
}

func TestSIIFetchesEveryCandidate(t *testing.T) {
	// SII's weakness (the paper's motivation): it must fetch every tuple
	// defining a queried attribute, regardless of value.
	fx := newFixture(t, 200, 54)
	m := metric.Default()
	q := fx.randQuery(t, 3, 10)
	_, stats, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TableAccesses != stats.Candidates {
		t.Fatalf("accesses %d != candidates %d", stats.TableAccesses, stats.Candidates)
	}
}

// TestSIISearchAllocs pins that a query's own allocations do not grow with
// its candidate count. What fetching the candidates allocates is the table's
// (Table.Fetch materialises every tuple) and is taken off first: the same
// one-term query then allocates as much over 150 tuples as over 3,000, with
// about twenty times the candidates. Under -race, which drops pooled
// bitsets at random, the counts are logged and not compared.
func TestSIISearchAllocs(t *testing.T) {
	m := metric.Default()
	own := func(tuples int) (float64, int64) {
		fx := newFixture(t, tuples, 61)
		q := &model.Query{K: 10}
		q.TextTerm(fx.textAttrs[0], "canon")
		var ptrs []int64
		for _, e := range fx.ix.entries {
			tp, err := fx.tbl.Fetch(e.ptr)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := tp.Get(fx.textAttrs[0]); ok {
				ptrs = append(ptrs, e.ptr)
			}
		}
		var stats SearchStats
		search := testing.AllocsPerRun(20, func() {
			var err error
			if _, stats, err = fx.ix.Search(q, m); err != nil {
				t.Fatal(err)
			}
		})
		fetch := testing.AllocsPerRun(20, func() {
			for _, ptr := range ptrs {
				if _, err := fx.tbl.Fetch(ptr); err != nil {
					t.Fatal(err)
				}
			}
		})
		if stats.Candidates != int64(len(ptrs)) {
			t.Fatalf("%d tuples: %d candidates, %d tuples define the attribute", tuples, stats.Candidates, len(ptrs))
		}
		return search - fetch, stats.Candidates
	}
	few, nFew := own(150)
	many, nMany := own(3000)
	t.Logf("own allocations per query: %v at %d candidates, %v at %d", few, nFew, many, nMany)
	if nMany < 10*nFew {
		t.Fatalf("candidates %d and %d: the fixture no longer spreads them", nFew, nMany)
	}
	if many > few && !raceEnabled {
		t.Errorf("a query's own allocations grow with its candidates: %v at %d, %v at %d", few, nFew, many, nMany)
	}
}
