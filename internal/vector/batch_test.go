package vector

import (
	"fmt"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
)

// batchList is a vector list over n tuple-list positions (tid == position)
// together with what each position holds and where a stripe checkpoint taken
// before it points.
type batchList struct {
	lay     Layout
	logical bitio.Writer
	offAt   []int   // bit offset of the next element header before position i
	want    []Entry // ground truth per position
}

// newBatchList encodes one element per position: defined decides ndf, nstrs
// the string count of a text value, code the numeric code.
func newBatchList(t testing.TB, lay Layout, n int, defined func(i int) bool, nstrs func(i int) int, code func(i int) uint64) *batchList {
	t.Helper()
	enc, err := NewEncoder(lay)
	if err != nil {
		t.Fatal(err)
	}
	l := &batchList{lay: lay, offAt: make([]int, n), want: make([]Entry, n)}
	for i := 0; i < n; i++ {
		l.offAt[i] = l.logical.Len()
		l.want[i] = Entry{NDF: !defined(i)}
		if lay.Kind == model.KindNumeric {
			if defined(i) {
				l.want[i].Code = code(i)
			}
			if err := enc.EncodeNumeric(&l.logical, model.TID(i), code(i), !defined(i)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if defined(i) {
			for j := 0; j < nstrs(i); j++ {
				s := fmt.Sprintf("v%d.%d-%s", i, j, "abcdefghijklmnopqrstuvwxyz"[:i%23])
				l.want[i].Sigs = append(l.want[i].Sigs, lay.Codec.Encode(s))
			}
		}
		if err := enc.EncodeText(&l.logical, model.TID(i), l.want[i].Sigs); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// raw opens the list's logical stream as codec 0 stores it.
func (l *batchList) raw() BitSource {
	return MemSource{R: bitio.NewReader(l.logical.Bytes(), l.logical.Len())}
}

// packed re-stores the list the way codec 1 does — positions [0,sealed) in
// blocks of stripe positions, the rest as the raw tail — and opens a
// BlockSource over it.
func (l *batchList) packed(t testing.TB, stripe, sealed int) BitSource {
	t.Helper()
	var phys bitio.Writer
	var dir []BlockMeta
	cut := func(lo, hi int) *bitio.Writer {
		r := bitio.NewReader(l.logical.Bytes(), l.logical.Len())
		if err := r.Seek(lo); err != nil {
			t.Fatal(err)
		}
		var w bitio.Writer
		if err := copyBits(&w, r, int64(hi-lo)); err != nil {
			t.Fatal(err)
		}
		return &w
	}
	end := func(pos int) int {
		if pos >= len(l.offAt) {
			return l.logical.Len()
		}
		return l.offAt[pos]
	}
	prev := 0
	for pos := stripe; pos <= sealed; pos += stripe {
		w := cut(prev, end(pos))
		if w.Len() == 0 {
			break // nothing to seal (every position ndf): the rest stays tail
		}
		words, err := Packed.Seal(l.lay, w.Bytes(), int64(w.Len()))
		if err != nil {
			t.Fatal(err)
		}
		dir = append(dir, BlockMeta{PhysWord: int64(phys.Len() / 64), LogicalStart: int64(prev), LogicalBits: int64(w.Len())})
		for _, x := range words {
			phys.WriteBits(x, 64)
		}
		prev = end(pos)
	}
	codedWords := int64(phys.Len() / 64)
	tail := cut(prev, l.logical.Len())
	r := bitio.NewReader(tail.Bytes(), tail.Len())
	if err := copyBits(&phys, r, int64(tail.Len())); err != nil {
		t.Fatal(err)
	}
	return NewBlockSource(l.lay, MemSource{R: bitio.NewReader(phys.Bytes(), phys.Len())},
		dir, codedWords, int64(l.logical.Len()))
}

// entrySink records FillBatch's output per batch entry, copying signatures
// out of the cursor's scratch.
type entrySink struct {
	base int // index of the batch's first entry in got
	got  []Entry
}

func (s *entrySink) Text(j int, sigs []signature.Sig) {
	e := Entry{}
	for _, sig := range sigs {
		e.Sigs = append(e.Sigs, signature.Sig{Len: sig.Len, H: append([]uint64(nil), sig.H...)})
	}
	s.got[s.base+j] = e
}

func (s *entrySink) Num(j int, code uint64) { s.got[s.base+j] = Entry{Code: code} }

// fillAll drives cur over the live positions in batches of size batch and
// returns one Entry per live position.
func fillAll(t testing.TB, cur *Cursor, live []int, batch int) []Entry {
	t.Helper()
	sink := &entrySink{got: make([]Entry, len(live))}
	for i := range sink.got {
		sink.got[i] = Entry{NDF: true}
	}
	tids := make([]model.TID, 0, batch)
	pos := make([]int64, 0, batch)
	for lo := 0; lo < len(live); lo += batch {
		hi := min(lo+batch, len(live))
		tids, pos = tids[:0], pos[:0]
		for _, p := range live[lo:hi] {
			tids = append(tids, model.TID(p))
			pos = append(pos, int64(p))
		}
		sink.base = lo
		if k, err := cur.FillBatch(tids, pos, sink); err != nil || k != hi-lo {
			t.Fatalf("FillBatch(live[%d:%d]) = %d, %v", lo, hi, k, err)
		}
	}
	return sink.got
}

func sameEntry(a, b Entry) bool {
	if a.NDF != b.NDF || a.Code != b.Code || len(a.Sigs) != len(b.Sigs) {
		return false
	}
	for i := range a.Sigs {
		if a.Sigs[i].Len != b.Sigs[i].Len || len(a.Sigs[i].H) != len(b.Sigs[i].H) {
			return false
		}
		for k := range a.Sigs[i].H {
			if a.Sigs[i].H[k] != b.Sigs[i].H[k] {
				return false
			}
		}
	}
	return true
}

func batchLayouts(t testing.TB) map[string]Layout {
	return map[string]Layout{
		"I-text":   textLayout(t, TypeI),
		"I-num":    numLayout(TypeI),
		"II-text":  textLayout(t, TypeII),
		"III-text": textLayout(t, TypeIII),
		"IV-num":   numLayout(TypeIV),
	}
}

// TestFillBatchMatchesMoveTo holds the batch kernel equal to the list's
// ground truth and to per-position MoveTo on all four list types, over raw
// and packed storage, with tombstone gaps in the driver's positions, resumed
// at stripe checkpoints, and at batch sizes that put a boundary before and
// after every element — in particular inside and around the runs of same-tid
// Type I elements a multi-string value makes.
func TestFillBatchMatchesMoveTo(t *testing.T) {
	const n, stripe = 96, 32
	for name, lay := range batchLayouts(t) {
		for _, dense := range []bool{false, true} {
			l := newBatchList(t, lay, n,
				func(i int) bool { return dense || i%3 != 1 },
				func(i int) int { return 1 + i%3 },
				func(i int) uint64 { return uint64(i*7) % 200 })
			for _, store := range []string{"raw", "packed"} {
				open := l.raw
				if store == "packed" {
					open = func() BitSource { return l.packed(t, stripe, 64) }
				}
				for _, gaps := range []string{"none", "every4th", "run"} {
					for _, start := range []int{0, stripe, 2 * stripe} {
						var live []int
						for p := start; p < n; p++ {
							dead := gaps == "every4th" && p%4 == 2 || gaps == "run" && p >= 40 && p < 71
							if !dead {
								live = append(live, p)
							}
						}
						ref, err := NewCursorAt(lay, open(), int64(l.offAt[start]), int64(start))
						if err != nil {
							t.Fatal(err)
						}
						for i, p := range live {
							e, err := ref.MoveTo(model.TID(p), int64(p))
							if err != nil {
								t.Fatalf("%s/%s: MoveTo(%d): %v", name, store, p, err)
							}
							if !sameEntry(e, l.want[p]) {
								t.Fatalf("%s/%s gaps=%s start=%d: MoveTo(%d) = %+v, list holds %+v", name, store, gaps, start, p, e, l.want[live[i]])
							}
						}
						for _, batch := range []int{1, 2, 3, 5, 7, 64} {
							cur, err := NewCursorAt(lay, open(), int64(l.offAt[start]), int64(start))
							if err != nil {
								t.Fatal(err)
							}
							cur.EnableScratch()
							for i, e := range fillAll(t, cur, live, batch) {
								if !sameEntry(e, l.want[live[i]]) {
									t.Fatalf("%s/%s gaps=%s start=%d batch=%d: position %d = %+v, list holds %+v",
										name, store, gaps, start, batch, live[i], e, l.want[live[i]])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFillBatchErrorIndex pins the degrade contract: on a read error the
// returned index is the first unresolved entry, and every entry before it has
// been delivered.
func TestFillBatchErrorIndex(t *testing.T) {
	for name, lay := range batchLayouts(t) {
		l := newBatchList(t, lay, 40,
			func(i int) bool { return true },
			func(i int) int { return 1 + i%2 },
			func(i int) uint64 { return uint64(i) })
		// Cut the stream inside position 25's element: just past the header of
		// a tid-addressed one (a list that ends before a header is a tail, not
		// an error), one bit into a positional one.
		cutBits := l.offAt[25] + 1
		if lay.Type == TypeI || lay.Type == TypeII {
			cutBits = l.offAt[25] + lay.LTid + 3
		}
		cur, err := NewCursor(lay, MemSource{R: bitio.NewReader(l.logical.Bytes(), cutBits)})
		if err != nil {
			t.Fatal(err)
		}
		tids, pos := make([]model.TID, 40), make([]int64, 40)
		for i := range tids {
			tids[i], pos[i] = model.TID(i), int64(i)
		}
		sink := &entrySink{got: make([]Entry, 40)}
		for i := range sink.got {
			sink.got[i] = Entry{NDF: true}
		}
		k, err := cur.FillBatch(tids, pos, sink)
		if err == nil {
			t.Fatalf("%s: truncated element read without error", name)
		}
		if k != 25 {
			t.Fatalf("%s: first unresolved entry = %d, want 25 (%v)", name, k, err)
		}
		for i := 0; i < k; i++ {
			if !sameEntry(sink.got[i], l.want[i]) {
				t.Fatalf("%s: entry %d before the error = %+v, list holds %+v", name, i, sink.got[i], l.want[i])
			}
		}
	}
}

func benchmarkFillBatch(b *testing.B, lay Layout, packed bool) {
	const n, batch = 8192, 512
	lay.LTid = 16
	l := newBatchList(b, lay, n,
		func(i int) bool { return lay.Type == TypeIII || lay.Type == TypeIV || i%4 == 0 },
		func(i int) int { return 1 + i%2 },
		func(i int) uint64 { return uint64(i) % 200 })
	src := l.raw()
	if packed {
		src = l.packed(b, 2048, n)
	}
	tids, pos := make([]model.TID, n), make([]int64, n)
	for i := range tids {
		tids[i], pos[i] = model.TID(i), int64(i)
	}
	cur, err := NewCursor(lay, src)
	if err != nil {
		b.Fatal(err)
	}
	cur.EnableScratch()
	var sink countSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cur.ResetAt(0, 0); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < n; lo += batch {
			if _, err := cur.FillBatch(tids[lo:lo+batch], pos[lo:lo+batch], &sink); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/position")
}

type countSink struct{ n int }

func (s *countSink) Text(_ int, sigs []signature.Sig) { s.n += len(sigs) }
func (s *countSink) Num(_ int, code uint64)           { s.n += int(code) }

func BenchmarkFillBatchTypeI(b *testing.B)   { benchmarkFillBatch(b, textLayout(b, TypeI), false) }
func BenchmarkFillBatchTypeII(b *testing.B)  { benchmarkFillBatch(b, textLayout(b, TypeII), false) }
func BenchmarkFillBatchTypeIII(b *testing.B) { benchmarkFillBatch(b, textLayout(b, TypeIII), false) }
func BenchmarkFillBatchTypeIV(b *testing.B)  { benchmarkFillBatch(b, numLayout(TypeIV), false) }
func BenchmarkFillBatchPacked(b *testing.B)  { benchmarkFillBatch(b, textLayout(b, TypeI), true) }
