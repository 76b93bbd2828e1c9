package table

import (
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

func newTestTable(t *testing.T) (*Table, *Catalog, *storage.Pool) {
	t.Helper()
	pool := storage.NewPool(0, 1<<20)
	cat := NewCatalog()
	tb, err := New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		t.Fatal(err)
	}
	return tb, cat, pool
}

func TestCatalogAddLookup(t *testing.T) {
	c := NewCatalog()
	id1, err := c.AddAttr("Price", model.KindNumeric)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.AddAttr("Company", model.KindText)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate ids")
	}
	if got, ok := c.Lookup("Price"); !ok || got != id1 {
		t.Fatalf("Lookup(Price) = %d,%v", got, ok)
	}
	// Idempotent re-add.
	again, err := c.AddAttr("Price", model.KindNumeric)
	if err != nil || again != id1 {
		t.Fatalf("re-add: %d, %v", again, err)
	}
	// Kind conflict.
	if _, err := c.AddAttr("Price", model.KindText); err == nil {
		t.Fatal("kind conflict accepted")
	}
	if _, err := c.AddAttr("", model.KindText); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestCatalogStats(t *testing.T) {
	c := NewCatalog()
	price, _ := c.AddAttr("Price", model.KindNumeric)
	brand, _ := c.AddAttr("Brand", model.KindText)

	c.note(map[model.AttrID]model.Value{price: model.Num(230)}, +1)
	c.note(map[model.AttrID]model.Value{price: model.Num(990)}, +1)
	c.note(map[model.AttrID]model.Value{brand: model.Text("Canon", "Cannon")}, +1)

	pi, _ := c.Info(price)
	if pi.DF != 2 || !pi.HasDomain || pi.Min != 230 || pi.Max != 990 {
		t.Fatalf("price info = %+v", pi)
	}
	bi, _ := c.Info(brand)
	if bi.DF != 1 || bi.Str != 2 {
		t.Fatalf("brand info = %+v", bi)
	}

	c.note(map[model.AttrID]model.Value{brand: model.Text("Canon", "Cannon")}, -1)
	bi, _ = c.Info(brand)
	if bi.DF != 0 || bi.Str != 0 {
		t.Fatalf("after delete: %+v", bi)
	}
}

func TestCatalogKindMismatchOnValue(t *testing.T) {
	c := NewCatalog()
	price, _ := c.AddAttr("Price", model.KindNumeric)
	if err := c.check(map[model.AttrID]model.Value{price: model.Text("oops")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestCatalogEncodeDecode(t *testing.T) {
	c := NewCatalog()
	price, _ := c.AddAttr("Price", model.KindNumeric)
	c.AddAttr("Brand", model.KindText)
	c.note(map[model.AttrID]model.Value{price: model.Num(-12.5)}, +1)
	c.note(map[model.AttrID]model.Value{price: model.Num(99.25)}, +1)

	blob := c.Encode()
	c2, err := DecodeCatalog(blob)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumAttrs() != 2 {
		t.Fatalf("NumAttrs = %d", c2.NumAttrs())
	}
	pi, _ := c2.Info(price)
	if pi.Name != "Price" || pi.DF != 2 || pi.Min != -12.5 || pi.Max != 99.25 {
		t.Fatalf("decoded price = %+v", pi)
	}
	if _, ok := c2.Lookup("Brand"); !ok {
		t.Fatal("Brand lost in round trip")
	}
	if _, err := DecodeCatalog([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAppendFetchRoundTrip(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	brand, _ := cat.AddAttr("Brand", model.KindText)
	price, _ := cat.AddAttr("Price", model.KindNumeric)

	vals := map[model.AttrID]model.Value{
		brand: model.Text("Canon"),
		price: model.Num(230),
	}
	tid, ptr, err := tb.Append(vals)
	if err != nil {
		t.Fatal(err)
	}
	if tid != 0 {
		t.Fatalf("first tid = %d", tid)
	}
	got, err := tb.Fetch(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != tid {
		t.Fatalf("fetched tid = %d", got.TID)
	}
	if v, ok := got.Get(brand); !ok || !v.Equal(model.Text("Canon")) {
		t.Fatalf("brand = %v,%v", v, ok)
	}
	if v, ok := got.Get(price); !ok || v.Num != 230 {
		t.Fatalf("price = %v,%v", v, ok)
	}
	if tb.Accesses() != 1 {
		t.Fatalf("Accesses = %d, want 1", tb.Accesses())
	}
}

func TestAppendMultiStringText(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	ind, _ := cat.AddAttr("Industry", model.KindText)
	_, ptr, err := tb.Append(map[model.AttrID]model.Value{
		ind: model.Text("Computer", "Software"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Fetch(ptr)
	v, _ := got.Get(ind)
	if len(v.Strs) != 2 || v.Strs[0] != "Computer" || v.Strs[1] != "Software" {
		t.Fatalf("strs = %v", v.Strs)
	}
}

func TestAppendRejectsInvalid(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	a, _ := cat.AddAttr("A", model.KindText)
	if _, _, err := tb.Append(map[model.AttrID]model.Value{a: model.Text()}); err == nil {
		t.Fatal("empty text set accepted")
	}
	if _, _, err := tb.Append(nil); err == nil {
		t.Fatal("empty tuple accepted")
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if _, _, err := tb.Append(map[model.AttrID]model.Value{a: model.Text(string(long))}); err == nil {
		t.Fatal("overlong string accepted")
	}
}

func TestScanOrderAndContent(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	a, _ := cat.AddAttr("A", model.KindNumeric)
	var ptrs []int64
	for i := 0; i < 10; i++ {
		_, ptr, err := tb.Append(map[model.AttrID]model.Value{a: model.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	var seen int
	err := tb.Scan(func(ptr int64, tp *model.Tuple) error {
		if ptr != ptrs[seen] {
			t.Fatalf("record %d at %d, want %d", seen, ptr, ptrs[seen])
		}
		if v, _ := tp.Get(a); v.Num != float64(seen) {
			t.Fatalf("record %d value %v", seen, v.Num)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("scanned %d records", seen)
	}
}

func TestHeaderPersistence(t *testing.T) {
	pool := storage.NewPool(0, 1<<20)
	dev := storage.NewMemDevice()
	cat := NewCatalog()
	a, _ := cat.AddAttr("A", model.KindNumeric)

	f := storage.NewFile(pool, dev)
	tb, err := New(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	var lastPtr int64
	for i := 0; i < 5; i++ {
		_, lastPtr, err = tb.Append(map[model.AttrID]model.Value{a: model.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Sync(); err != nil {
		t.Fatal(err)
	}

	tb2, err := Open(storage.NewFile(pool, dev), cat)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Live() != 5 || tb2.NextTID() != 5 {
		t.Fatalf("reopened: live=%d next=%d", tb2.Live(), tb2.NextTID())
	}
	got, err := tb2.Fetch(lastPtr)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get(a); v.Num != 4 {
		t.Fatalf("value = %v", v.Num)
	}
	// Appending after reopen lands after the old data.
	_, _, err = tb2.Append(map[model.AttrID]model.Value{a: model.Num(99)})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	tb2.Scan(func(int64, *model.Tuple) error { count++; return nil })
	if count != 6 {
		t.Fatalf("scanned %d records after reopen-append", count)
	}
}

func TestNoteDelete(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	a, _ := cat.AddAttr("A", model.KindText)
	vals := map[model.AttrID]model.Value{a: model.Text("x", "y")}
	tb.Append(vals)
	tb.Append(map[model.AttrID]model.Value{a: model.Text("z")})
	tb.NoteDelete(vals)
	if tb.Live() != 1 || tb.Total() != 2 {
		t.Fatalf("live=%d total=%d", tb.Live(), tb.Total())
	}
	info, _ := cat.Info(a)
	if info.DF != 1 || info.Str != 1 {
		t.Fatalf("stats after delete: %+v", info)
	}
}

func TestRebuildDropsDeleted(t *testing.T) {
	tb, cat, pool := newTestTable(t)
	a, _ := cat.AddAttr("A", model.KindNumeric)
	deleted := map[model.TID]bool{}
	for i := 0; i < 20; i++ {
		tid, _, err := tb.Append(map[model.AttrID]model.Value{a: model.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			deleted[tid] = true
		}
	}
	for tid := range deleted {
		tb.NoteDelete(map[model.AttrID]model.Value{a: model.Num(float64(tid))})
	}
	before, _ := cat.Info(a)
	nt, err := tb.Rebuild(storage.NewFile(pool, storage.NewMemDevice()),
		func(tid model.TID) bool { return !deleted[tid] })
	if err != nil {
		t.Fatal(err)
	}
	if int(nt.Live()) != 20-len(deleted) {
		t.Fatalf("rebuilt live = %d", nt.Live())
	}
	if nt.NextTID() != 20 {
		t.Fatalf("rebuilt nextTID = %d, want 20", nt.NextTID())
	}
	seen := 0
	err = nt.Scan(func(ptr int64, tp *model.Tuple) error {
		seen++
		got, err := nt.Fetch(ptr)
		if err != nil {
			return err
		}
		if deleted[tp.TID] || got.TID != tp.TID {
			t.Fatalf("rebuilt table holds tid %d (fetched %d)", tp.TID, got.TID)
		}
		if v, _ := got.Get(a); v.Num != float64(tp.TID) {
			t.Fatalf("tid %d value %v", tp.TID, v.Num)
		}
		return nil
	})
	if err != nil || seen != 20-len(deleted) {
		t.Fatalf("rebuilt scan: %d records, err %v", seen, err)
	}
	// The survivors' statistics are the new table's until published: the
	// catalog the old table still serves under has not moved.
	if info, _ := cat.Info(a); info != before {
		t.Fatalf("Rebuild touched the shared catalog: %+v -> %+v", before, info)
	}
	if info := nt.Attrs()[a]; info.DF != int64(20-len(deleted)) || info.Min == 0 {
		t.Fatalf("rebuilt table's statistics: %+v", info)
	}
	nt.PublishStats()
	// Catalog domain recomputed over survivors only.
	info, _ := cat.Info(a)
	if info.DF != int64(20-len(deleted)) {
		t.Fatalf("rebuilt DF = %d", info.DF)
	}
	if deleted[0] && info.Min == 0 {
		t.Fatal("domain not recomputed: still includes deleted minimum")
	}
}

func TestRandomTuplesRoundTrip(t *testing.T) {
	tb, cat, _ := newTestTable(t)
	var attrs []model.AttrID
	for i := 0; i < 30; i++ {
		kind := model.KindText
		if i%2 == 0 {
			kind = model.KindNumeric
		}
		id, _ := cat.AddAttr(attrName(i), kind)
		attrs = append(attrs, id)
	}
	rng := rand.New(rand.NewSource(21))
	type stored struct {
		ptr  int64
		vals map[model.AttrID]model.Value
	}
	var all []stored
	for i := 0; i < 200; i++ {
		vals := make(map[model.AttrID]model.Value)
		n := 1 + rng.Intn(8)
		for j := 0; j < n; j++ {
			id := attrs[rng.Intn(len(attrs))]
			info, _ := cat.Info(id)
			if info.Kind == model.KindNumeric {
				vals[id] = model.Num(rng.NormFloat64() * 100)
			} else {
				k := 1 + rng.Intn(3)
				strs := make([]string, k)
				for s := 0; s < k; s++ {
					strs[s] = randString(rng)
				}
				vals[id] = model.Text(strs...)
			}
		}
		_, ptr, err := tb.Append(vals)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{ptr, vals})
	}
	for i, st := range all {
		got, err := tb.Fetch(st.ptr)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if len(got.Values) != len(st.vals) {
			t.Fatalf("tuple %d: %d values, want %d", i, len(got.Values), len(st.vals))
		}
		for a, want := range st.vals {
			gotV, ok := got.Get(a)
			if !ok || !gotV.Equal(want) {
				t.Fatalf("tuple %d attr %d: got %v want %v", i, a, gotV, want)
			}
		}
	}
}

func attrName(i int) string {
	return string(rune('A'+i%26)) + string(rune('a'+i/26))
}

func randString(rng *rand.Rand) string {
	n := 1 + rng.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// benchRecords appends 512 sixteen-attribute tuples and returns their ptrs.
func benchRecords(b *testing.B) (*Table, []int64) {
	pool := storage.NewPool(0, 4<<20)
	cat := NewCatalog()
	tb, err := New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 16; i++ {
		kind := model.KindText
		if i%4 == 0 {
			kind = model.KindNumeric
		}
		if _, err := cat.AddAttr(attrName(i), kind); err != nil {
			b.Fatal(err)
		}
	}
	ptrs := make([]int64, 512)
	for i := range ptrs {
		vals := make(map[model.AttrID]model.Value)
		for a := 0; a < 16; a++ {
			if a%4 == 0 {
				vals[model.AttrID(a)] = model.Num(rng.NormFloat64())
			} else {
				vals[model.AttrID(a)] = model.Text(randString(rng))
			}
		}
		if _, ptrs[i], err = tb.Append(vals); err != nil {
			b.Fatal(err)
		}
	}
	return tb, ptrs
}

// BenchmarkRecordWalk is what a search's refine step pays per candidate: read
// and verify the record into a reused buffer, walk its fields.
func BenchmarkRecordWalk(b *testing.B) {
	tb, ptrs := benchRecords(b)
	var r Record
	var f Field
	kinds := tb.Catalog().Kinds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.FetchRecord(ptrs[i%len(ptrs)], &r); err != nil {
			b.Fatal(err)
		}
		for w := Walk(r.Body, kinds); w.Next(&f); {
		}
	}
}

// BenchmarkFetchDecode is the materialising path it replaced there: the same
// read, then a map and a string per value.
func BenchmarkFetchDecode(b *testing.B) {
	tb, ptrs := benchRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Fetch(ptrs[i%len(ptrs)]); err != nil {
			b.Fatal(err)
		}
	}
}
