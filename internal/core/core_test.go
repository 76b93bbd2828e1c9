package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
)

// fixture is a small random SWT with its index.
type fixture struct {
	pool           *storage.Pool
	tblDev, idxDev *storage.MemDevice // for tests that damage or reopen the images
	tbl            *table.Table
	ix             *Index

	textAttrs []model.AttrID
	numAttrs  []model.AttrID
	rng       *rand.Rand
}

func newFixture(t testing.TB, tuples int, opts Options, seed int64) *fixture {
	t.Helper()
	fx := &fixture{
		pool:   storage.NewPool(0, 10<<20),
		tblDev: storage.NewMemDevice(),
		idxDev: storage.NewMemDevice(),
		rng:    rand.New(rand.NewSource(seed)),
	}
	cat := table.NewCatalog()
	tbl, err := table.New(storage.NewFile(fx.pool, fx.tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	fx.tbl = tbl
	for i := 0; i < 12; i++ {
		id, err := cat.AddAttr(fmt.Sprintf("text%d", i), model.KindText)
		if err != nil {
			t.Fatal(err)
		}
		fx.textAttrs = append(fx.textAttrs, id)
	}
	for i := 0; i < 4; i++ {
		id, err := cat.AddAttr(fmt.Sprintf("num%d", i), model.KindNumeric)
		if err != nil {
			t.Fatal(err)
		}
		fx.numAttrs = append(fx.numAttrs, id)
	}
	for i := 0; i < tuples; i++ {
		if _, _, err := tbl.Append(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(tbl, storage.NewFile(fx.pool, fx.idxDev), opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.ix = ix
	return fx
}

func (fx *fixture) randValues() map[model.AttrID]model.Value {
	vals := make(map[model.AttrID]model.Value)
	n := 1 + fx.rng.Intn(5)
	for j := 0; j < n; j++ {
		if fx.rng.Intn(3) == 0 {
			a := fx.numAttrs[fx.rng.Intn(len(fx.numAttrs))]
			vals[a] = model.Num(float64(fx.rng.Intn(2000)) - 1000)
		} else {
			a := fx.textAttrs[fx.rng.Intn(len(fx.textAttrs))]
			k := 1 + fx.rng.Intn(2)
			strs := make([]string, k)
			for s := range strs {
				strs[s] = fx.randWord()
			}
			vals[a] = model.Text(strs...)
		}
	}
	// Make the first text attribute dense so some list becomes Type III.
	vals[fx.textAttrs[0]] = model.Text(fx.randWord())
	// And the first numeric attribute dense for Type IV.
	vals[fx.numAttrs[0]] = model.Num(float64(fx.rng.Intn(500)))
	return vals
}

var words = []string{
	"digital camera", "job position", "music album", "canon", "sony",
	"google", "computer", "software", "wide-angle", "telephoto",
	"michael jackson", "red", "white", "brown", "benz", "apple",
}

func (fx *fixture) randWord() string {
	w := words[fx.rng.Intn(len(words))]
	if fx.rng.Intn(4) == 0 { // typo
		b := []byte(w)
		p := fx.rng.Intn(len(b))
		b[p] = byte('a' + fx.rng.Intn(26))
		w = string(b)
	}
	return w
}

// randQuery samples values from stored tuples so the query distribution
// follows the data distribution (§V-A).
func (fx *fixture) randQuery(t testing.TB, nvals, k int) *model.Query {
	t.Helper()
	q := &model.Query{K: k}
	seen := map[model.AttrID]bool{}
	for len(q.Terms) < nvals {
		tid := model.TID(fx.rng.Intn(int(fx.tbl.NextTID())))
		pos, ok := fx.ix.find(tid)
		if !ok {
			continue
		}
		tp, err := fx.tbl.Fetch(fx.ix.entries[pos].ptr)
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
			q.TextTerm(a, v.Strs[fx.rng.Intn(len(v.Strs))])
		}
	}
	return q
}

// bruteForce computes the exact top-k by scanning live tuples.
func bruteForce(t testing.TB, fx *fixture, q *model.Query, m *metric.Metric) []model.Result {
	t.Helper()
	return bruteForceIndex(t, fx.ix, q, m)
}

// bruteForceIndex is bruteForce for an index built outside a fixture.
func bruteForceIndex(t testing.TB, ix *Index, q *model.Query, m *metric.Metric) []model.Result {
	t.Helper()
	pool := topk.New(q.K)
	for _, e := range ix.entries {
		if e.deleted {
			continue
		}
		tp, err := ix.tbl.Fetch(e.ptr)
		if err != nil {
			t.Fatal(err)
		}
		pool.Insert(e.tid, m.TupleDistance(q, tp))
	}
	return pool.Results()
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

func TestSearchMatchesBruteForce(t *testing.T) {
	fx := newFixture(t, 400, Options{}, 101)
	for _, m := range []*metric.Metric{
		metric.New(metric.L1{}, metric.Equal{}),
		metric.New(metric.L2{}, metric.Equal{}),
		metric.New(metric.LInf{}, metric.Equal{}),
	} {
		for trial := 0; trial < 25; trial++ {
			q := fx.randQuery(t, 1+fx.rng.Intn(3), 1+fx.rng.Intn(10))
			got, _, err := fx.ix.Search(q, m)
			if err != nil {
				t.Fatalf("%s trial %d: %v", m.Name(), trial, err)
			}
			want := bruteForce(t, fx, q, m)
			if !sameDistances(got, want) {
				t.Fatalf("%s trial %d: distances differ\n got %v\nwant %v\nquery %+v",
					m.Name(), trial, got, want, q)
			}
		}
	}
}

func TestSearchAcrossParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep")
	}
	for _, alpha := range []float64{0.10, 0.30} {
		fx := newFixture(t, 200, Options{Alpha: alpha}, 2000+int64(alpha*100))
		m := metric.Default()
		for trial := 0; trial < 10; trial++ {
			q := fx.randQuery(t, 2, 5)
			got, _, err := fx.ix.Search(q, m)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(t, fx, q, m)
			if !sameDistances(got, want) {
				t.Fatalf("α=%v trial %d: mismatch", alpha, trial)
			}
		}
	}
}

func TestSearchFiltersFetches(t *testing.T) {
	fx := newFixture(t, 500, Options{}, 103)
	m := metric.Default()
	q := fx.randQuery(t, 3, 10)
	_, stats, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != fx.tbl.Live() {
		t.Fatalf("scanned %d of %d live tuples", stats.Scanned, fx.tbl.Live())
	}
	if stats.TableAccesses >= stats.Scanned {
		t.Fatalf("no filtering: %d accesses for %d scanned", stats.TableAccesses, stats.Scanned)
	}
	if stats.TableAccesses < int64(q.K) {
		t.Fatalf("accesses %d < k; pool cannot be full", stats.TableAccesses)
	}
}

func TestInsertThenSearch(t *testing.T) {
	fx := newFixture(t, 150, Options{}, 104)
	m := metric.Default()
	// Insert new tuples through the index (§IV-B tail appends).
	for i := 0; i < 60; i++ {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 15; trial++ {
		q := fx.randQuery(t, 2, 8)
		got, _, err := fx.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, fx, q, m)
		if !sameDistances(got, want) {
			t.Fatalf("trial %d after inserts: mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestDeleteThenSearch(t *testing.T) {
	fx := newFixture(t, 200, Options{}, 105)
	m := metric.Default()
	for i := 0; i < 50; i++ {
		tid := model.TID(fx.rng.Intn(200))
		err := fx.ix.Delete(tid)
		if err != nil && err != ErrNotFound {
			t.Fatal(err)
		}
	}
	if fx.ix.Deleted() == 0 {
		t.Fatal("no deletions registered")
	}
	for trial := 0; trial < 15; trial++ {
		q := fx.randQuery(t, 2, 8)
		got, _, err := fx.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, fx, q, m)
		if !sameDistances(got, want) {
			t.Fatalf("trial %d after deletes: mismatch", trial)
		}
		for _, r := range got {
			if _, live := fx.ix.find(r.TID); !live {
				t.Fatalf("deleted tuple %d in results", r.TID)
			}
		}
	}
}

func TestUpdateAssignsNewTID(t *testing.T) {
	fx := newFixture(t, 50, Options{}, 106)
	vals := fx.randValues()
	newTID, err := fx.ix.Replace(7, vals)
	if err != nil {
		t.Fatal(err)
	}
	if newTID < 50 {
		t.Fatalf("updated tuple kept old id space: %d", newTID)
	}
	if err := fx.ix.Delete(7); err != ErrNotFound {
		t.Fatalf("old tid still live: %v", err)
	}
	tp, err := fx.ix.Fetch(newTID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Values) != len(vals) {
		t.Fatal("updated values lost")
	}
}

func TestDeleteUnknown(t *testing.T) {
	fx := newFixture(t, 10, Options{}, 107)
	if err := fx.ix.Delete(999); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	pool := storage.NewPool(0, 10<<20)
	cat := table.NewCatalog()
	tblDev := storage.NewMemDevice()
	idxDev := storage.NewMemDevice()
	tbl, _ := table.New(storage.NewFile(pool, tblDev), cat)
	a, _ := cat.AddAttr("name", model.KindText)
	b, _ := cat.AddAttr("price", model.KindNumeric)
	for i := 0; i < 40; i++ {
		tbl.Append(map[model.AttrID]model.Value{
			a: model.Text(words[i%len(words)]),
			b: model.Num(float64(i * 10)),
		})
	}
	ix, err := Build(tbl, storage.NewFile(pool, idxDev), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	m := metric.Default()
	q := (&model.Query{K: 5}).TextTerm(a, "canon").NumTerm(b, 100)
	want, _, err := ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen both files.
	tbl2, err := table.Open(storage.NewFile(pool, tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(storage.NewFile(pool, idxDev), tbl2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix2.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDistances(got, want) {
		t.Fatalf("reopened index differs: %v vs %v", got, want)
	}
	if ix2.Entries() != ix.Entries() {
		t.Fatalf("entries: %d vs %d", ix2.Entries(), ix.Entries())
	}
	// And it still accepts updates.
	if _, err := ix2.Insert(map[model.AttrID]model.Value{a: model.Text("sony")}); err != nil {
		t.Fatal(err)
	}
}

func TestForceTypeAblation(t *testing.T) {
	// Forcing Type I must preserve correctness (it is always legal).
	fx := newFixture(t, 150, Options{ForceType: 1}, 108)
	m := metric.Default()
	for trial := 0; trial < 10; trial++ {
		q := fx.randQuery(t, 2, 5)
		got, _, err := fx.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDistances(got, bruteForce(t, fx, q, m)) {
			t.Fatalf("trial %d: forced Type I mismatch", trial)
		}
	}
}

func TestListTypeSelectionPicksPositionalForDense(t *testing.T) {
	fx := newFixture(t, 300, Options{}, 109)
	// textAttrs[0] and numAttrs[0] are defined in every tuple; with 300
	// tuples the positional types win their formulas.
	if lt, ok := fx.ix.ListType(fx.textAttrs[0]); !ok || lt.String() != "III" {
		t.Fatalf("dense text attr list type = %v (ok=%v), want III", lt, ok)
	}
	if lt, ok := fx.ix.ListType(fx.numAttrs[0]); !ok || lt.String() != "IV" {
		t.Fatalf("dense numeric attr list type = %v (ok=%v), want IV", lt, ok)
	}
	// A sparse attribute should not be positional.
	if lt, ok := fx.ix.ListType(fx.textAttrs[5]); ok && (lt.String() == "III") {
		t.Fatalf("sparse text attr got positional type %v", lt)
	}
}

func TestQueryOnPostBuildAttribute(t *testing.T) {
	fx := newFixture(t, 60, Options{}, 110)
	newAttr, err := fx.tbl.Catalog().AddAttr("brand-new", model.KindText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ix.Insert(map[model.AttrID]model.Value{newAttr: model.Text("fresh value")}); err != nil {
		t.Fatal(err)
	}
	m := metric.Default()
	q := (&model.Query{K: 3}).TextTerm(newAttr, "fresh value")
	got, _, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(t, fx, q, m)
	if !sameDistances(got, want) {
		t.Fatalf("post-build attribute query mismatch: %v vs %v", got, want)
	}
	if got[0].Dist != 0 {
		t.Fatalf("exact match not at distance 0: %v", got[0])
	}
}

func TestSearchValidation(t *testing.T) {
	fx := newFixture(t, 20, Options{}, 111)
	m := metric.Default()
	if _, _, err := fx.ix.Search(&model.Query{K: 0}, m); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Kind mismatch: text query on numeric attribute.
	q := (&model.Query{K: 1}).TextTerm(fx.numAttrs[0], "oops")
	if _, _, err := fx.ix.Search(q, m); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestTIDOverflowTriggersRebuildError(t *testing.T) {
	fx := newFixture(t, 20, Options{TIDHeadroom: 4}, 112)
	var sawRebuild bool
	for i := 0; i < 40; i++ {
		_, err := fx.ix.Insert(fx.randValues())
		if err == ErrNeedsRebuild {
			sawRebuild = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawRebuild {
		t.Fatal("tid overflow never reported ErrNeedsRebuild")
	}
}

func TestITFWeightedSearch(t *testing.T) {
	fx := newFixture(t, 200, Options{}, 113)
	cat := fx.tbl.Catalog()
	itf := metric.NewITF(fx.tbl.Live, func(a model.AttrID) int64 {
		info, _ := cat.Info(a)
		return info.DF
	})
	m := metric.New(metric.L2{}, itf)
	for trial := 0; trial < 10; trial++ {
		q := fx.randQuery(t, 3, 10)
		got, _, err := fx.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDistances(got, bruteForce(t, fx, q, m)) {
			t.Fatalf("ITF trial %d: mismatch", trial)
		}
	}
}

func BenchmarkSearch3Terms(b *testing.B) {
	fx := newFixture(b, 2000, Options{}, 200)
	m := metric.Default()
	queries := make([]*model.Query, 16)
	for i := range queries {
		queries[i] = fx.randQuery(b, 3, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fx.ix.Search(queries[i%len(queries)], m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	fx := newFixture(b, 100, Options{TIDHeadroom: 1 << 24}, 201)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			b.Fatal(err)
		}
	}
}
