package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// referenceRebuild is table compaction as it was before Rebuild copied
// record bytes: every record decoded into a tuple, the survivors re-encoded
// and appended one by one, the shared catalog's statistics reset and
// re-counted by those appends. It is the reference the byte-copying Rebuild
// is compared with.
func referenceRebuild(t *Table, dst *storage.File, keep func(model.TID) bool) (*Table, error) {
	t.cat.mu.Lock()
	for i := range t.cat.attrs {
		t.cat.attrs[i] = AttrInfo{Name: t.cat.attrs[i].Name, Kind: t.cat.attrs[i].Kind}
	}
	t.cat.mu.Unlock()
	nt, err := New(dst, t.cat)
	if err != nil {
		return nil, err
	}
	err = t.Scan(func(_ int64, tp *model.Tuple) error {
		if !keep(tp.TID) {
			return nil
		}
		_, err := nt.AppendWithTID(tp.TID, tp.Values)
		return err
	})
	if err != nil {
		return nil, err
	}
	if t.nextTID > nt.nextTID {
		nt.nextTID = t.nextTID
	}
	return nt, nt.Sync()
}

// rebuildFixture fills a table with n random tuples over text and numeric
// attributes — multi-string values, one- and 255-byte strings included — and
// returns it with the tids a rebuild should drop.
func rebuildFixture(t *testing.T, tb *Table, cat *Catalog, n int, seed int64) map[model.TID]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var attrs []model.AttrID
	for i := 0; i < 12; i++ {
		kind := model.KindText
		if i%3 == 0 {
			kind = model.KindNumeric
		}
		id, err := cat.AddAttr(attrName(i), kind)
		if err != nil {
			t.Fatal(err)
		}
		attrs = append(attrs, id)
	}
	dead := map[model.TID]bool{}
	for i := 0; i < n; i++ {
		vals := map[model.AttrID]model.Value{}
		for j := 0; j <= rng.Intn(6); j++ {
			a := attrs[rng.Intn(len(attrs))]
			if info, _ := cat.Info(a); info.Kind == model.KindNumeric {
				vals[a] = model.Num(rng.NormFloat64() * 1e3)
				continue
			}
			strs := make([]string, 1+rng.Intn(4))
			for k := range strs {
				switch rng.Intn(12) {
				case 0:
					strs[k] = "y"
				case 1:
					strs[k] = strings.Repeat("x", 255)
				default:
					strs[k] = randString(rng)
				}
			}
			vals[a] = model.Text(strs...)
		}
		tid, _, err := tb.Append(vals)
		if err != nil {
			t.Fatal(err)
		}
		// The tail is dead too, so the id space must stay monotone by the
		// old table's nextTID rather than by the last survivor.
		if rng.Intn(3) == 0 || i >= n-3 {
			dead[tid] = true
			tb.NoteDelete(vals)
		}
	}
	return dead
}

func deviceBytes(t *testing.T, dev storage.Device) []byte {
	t.Helper()
	b := make([]byte, dev.Size())
	if _, err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRebuildMatchesReference: the table file Rebuild writes, its logical
// size and header counters, and the statistics it publishes are exactly what
// decoding and re-appending every survivor produces — for a table inside one
// write chunk, one spanning several, and an empty one.
func TestRebuildMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"one-chunk", 300},
		{"several-chunks", 6000},
		{"empty", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := storage.NewPool(0, 1<<20)
			cat := NewCatalog()
			srcDev := storage.NewMemDevice()
			tb, err := New(storage.NewFile(pool, srcDev), cat)
			if err != nil {
				t.Fatal(err)
			}
			dead := rebuildFixture(t, tb, cat, tc.n, int64(tc.n)+7)
			if tc.n > 1000 && tb.Bytes() < 3*rebuildChunk {
				t.Fatalf("fixture of %d bytes does not span several %d-byte chunks", tb.Bytes(), rebuildChunk)
			}
			keep := func(tid model.TID) bool { return !dead[tid] }

			gotDev := storage.NewMemDevice()
			got, err := tb.Rebuild(storage.NewFile(pool, gotDev), keep)
			if err != nil {
				t.Fatal(err)
			}
			gotStats := got.Attrs()
			wantDev := storage.NewMemDevice()
			want, err := referenceRebuild(tb, storage.NewFile(pool, wantDev), keep)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := deviceBytes(t, gotDev), deviceBytes(t, wantDev); !bytes.Equal(g, w) {
				t.Fatalf("table files differ (%d vs %d bytes, first difference at %d)", len(g), len(w), firstDiff(g, w))
			}
			if got.Bytes() != want.Bytes() || got.Live() != want.Live() || got.Total() != want.Total() ||
				got.NextTID() != want.NextTID() {
				t.Fatalf("rebuilt table shape: size %d live %d total %d next %d, reference %d %d %d %d",
					got.Bytes(), got.Live(), got.Total(), got.NextTID(), want.Bytes(), want.Live(), want.Total(), want.NextTID())
			}
			// The reference counted into the shared catalog.
			if wantStats := cat.Attrs(); !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("statistics differ:\n got %+v\nwant %+v", gotStats, wantStats)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRebuildFailureLeavesCatalog: a rebuild that dies part-way — here on
// every device operation of the new file in turn — has not touched the
// catalog the old table is still served under.
func TestRebuildFailureLeavesCatalog(t *testing.T) {
	tb, cat, pool := newTestTable(t)
	dead := rebuildFixture(t, tb, cat, 200, 3)
	before := cat.Attrs()
	for budget := int64(0); ; budget++ {
		fd := storage.NewFaultDevice(storage.NewMemDevice(), budget)
		f := storage.NewFile(pool, fd)
		nt, err := tb.Rebuild(f, func(tid model.TID) bool { return !dead[tid] })
		f.Close()
		if !reflect.DeepEqual(cat.Attrs(), before) {
			t.Fatalf("budget %d: catalog changed by a rebuild nobody published (err %v)", budget, err)
		}
		if err == nil {
			if fd.Tripped() || nt.Live() != int64(200-len(dead)) {
				t.Fatalf("budget %d: tripped %v, live %d", budget, fd.Tripped(), nt.Live())
			}
			return
		}
	}
}

func BenchmarkRebuild(b *testing.B) {
	pool := storage.NewPool(0, 64<<20)
	cat := NewCatalog()
	tb, err := New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		b.Fatal(err)
	}
	name, price := model.AttrID(0), model.AttrID(1)
	cat.AddAttr("name", model.KindText)
	cat.AddAttr("price", model.KindNumeric)
	const n = 5000
	for i := 0; i < n; i++ {
		vals := map[model.AttrID]model.Value{name: model.Text(fmt.Sprintf("digital camera %d", i)), price: model.Num(float64(i))}
		if _, _, err := tb.Append(vals); err != nil {
			b.Fatal(err)
		}
	}
	dst := storage.NewFile(pool, storage.NewMemDevice())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Rebuild(dst, func(tid model.TID) bool { return tid%50 != 0 }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}
