package vector

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
)

func encodeStrs(lay Layout, strs []string) []signature.Sig {
	out := make([]signature.Sig, 0, len(strs))
	for _, s := range strs {
		out = append(out, lay.Codec.Encode(s))
	}
	return out
}

// chainList is a text list stored twice: in a segment chain, built in one
// append and then grown a tuple at a time as the index grows it (§IV-B), and
// as the logical stream a MemSource reads.
type chainList struct {
	*batchList
	segs  *storage.SegStore
	chain storage.ChainID
	bits  int64
}

// newChainList encodes n positions whose values cross every segment seam
// (payloads 120, 248, 504, 1,016, 2,040 and 4,088 B) and a 256-byte page
// boundary inside each segment: one tuple in ndfEvery is ndf (a count-0
// element in Type III; 0: none), the rest hold 1–4 strings of 1 to 120
// bytes, so that some cH span two words or more.
func newChainList(t *testing.T, lay Layout, n, ndfEvery int, seed int64) *chainList {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lay.LTid = 16
	enc, err := NewEncoder(lay)
	if err != nil {
		t.Fatal(err)
	}
	l := &chainList{batchList: &batchList{lay: lay, offAt: make([]int, n), want: make([]Entry, n)}}
	for i := range n {
		l.offAt[i] = l.logical.Len()
		l.want[i] = Entry{NDF: ndfEvery > 0 && rng.Intn(ndfEvery) == 0}
		for j := 0; !l.want[i].NDF && j < 1+rng.Intn(4); j++ {
			b := make([]byte, 1+rng.Intn(120))
			for x := range b {
				b[x] = byte('a' + rng.Intn(26))
			}
			l.want[i].Sigs = append(l.want[i].Sigs, lay.Codec.Encode(string(b)))
		}
		if err := enc.EncodeText(&l.logical, model.TID(i), l.want[i].Sigs); err != nil {
			t.Fatal(err)
		}
	}
	pool := storage.NewPool(256, 1<<20)
	l.segs = storage.NewSegStore(storage.NewFile(pool, storage.NewMemDevice()), 0)
	if l.chain, err = l.segs.Create(); err != nil {
		t.Fatal(err)
	}
	// Build phase: the first half in one append; then a tuple at a time.
	buf, cut := l.logical.Bytes(), l.offAt[n/2]
	var w bitio.Writer
	if err := copyBits(&w, bitio.NewReader(buf, cut), int64(cut)); err != nil {
		t.Fatal(err)
	}
	if l.bits, err = storage.AppendBits(l.segs, l.chain, 0, w.Bytes(), w.Len()); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		end := l.logical.Len()
		if i+1 < n {
			end = l.offAt[i+1]
		}
		r := bitio.NewReader(buf, end)
		if err := r.Seek(l.offAt[i]); err != nil {
			t.Fatal(err)
		}
		var aw bitio.Writer
		if err := copyBits(&aw, r, int64(end-l.offAt[i])); err != nil {
			t.Fatal(err)
		}
		if l.bits, err = storage.AppendBits(l.segs, l.chain, l.bits, aw.Bytes(), aw.Len()); err != nil {
			t.Fatal(err)
		}
	}
	if l.bits != int64(l.logical.Len()) {
		t.Fatalf("chain holds %d bits, stream %d", l.bits, l.logical.Len())
	}
	return l
}

// fillFrom resumes cur at position start's checkpoint and fills the live
// positions of [start, end): those with p%gap != gap-1, all when gap is 0.
func fillFrom(t *testing.T, l *chainList, cur *Cursor, start, end, gap, batch int) ([]int, []Entry) {
	t.Helper()
	if err := cur.ResetAt(int64(l.offAt[start]), int64(start)); err != nil {
		t.Fatal(err)
	}
	var live []int
	for p := start; p < end; p++ {
		if gap == 0 || p%gap != gap-1 {
			live = append(live, p)
		}
	}
	return live, fillAll(t, cur, live, batch)
}

// TestCursorOverSegmentChains holds the cursor's in-place decode over a
// storage.ChainBitReader equal, signature by signature, to the same bits
// read through a MemSource and to what was encoded: for Types I, II and III,
// from every position's checkpoint, with deleted gaps, across every segment
// seam and page boundary, and into the end of the stream. Then a flipped
// byte must surface as checkChainCorruption says.
func TestCursorOverSegmentChains(t *testing.T) {
	for _, typ := range []ListType{TypeI, TypeII, TypeIII} {
		l := newChainList(t, textLayout(t, typ), 1100, 5, int64(71+typ))
		if seg, _, _ := storage.SegAt(int64(l.bits / 8)); seg < 6 {
			t.Fatalf("type %v: %d bits reach segment %d, want past the 4,088-byte one", typ, l.bits, seg)
		}
		chained, err := NewCursor(l.lay, storage.NewChainBitReader(l.segs, l.chain, l.bits))
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewCursor(l.lay, l.raw())
		if err != nil {
			t.Fatal(err)
		}
		n := len(l.want)
		for start := 0; start < n; start++ {
			for _, gap := range []int{0, 3} {
				end := min(start+7, n)
				if start%97 == 0 {
					end = n // now and then, on to the end of the stream
				}
				live, got := fillFrom(t, l, chained, start, end, gap, 5)
				_, ref := fillFrom(t, l, mem, start, end, gap, 5)
				for i, p := range live {
					if !sameEntry(got[i], ref[i]) || !sameEntry(got[i], l.want[p]) {
						t.Fatalf("type %v from %d, gap %d: position %d = %+v through the chain, %+v through memory, list holds %+v",
							typ, start, gap, p, got[i], ref[i], l.want[p])
					}
				}
			}
		}
		checkChainCorruption(t, typ)
	}
}

// checkChainCorruption flips a byte inside a segment that a
// checksum-map-like hook vouches for: the refill of the window over it fails
// with a *storage.CorruptionError, and FillBatch returns the first entry
// left unresolved — the one whose decode reaches the segment — having
// delivered every entry before it (the contract TestFillBatchErrorIndex pins
// on a MemSource).
func checkChainCorruption(t *testing.T, typ ListType) {
	{
		// Every tuple defined, so the entry that reads a byte is plain.
		l := newChainList(t, textLayout(t, typ), 600, 0, int64(91+typ))
		// Record each segment's checksum, as a Sync would.
		const bad = 4
		seg := func(k int) (int64, []byte) {
			var off int64
			for ; ; off++ {
				if got, in, pay := storage.SegAt(off); got == k {
					b := make([]byte, pay)
					if err := l.segs.ReadAt(l.chain, b, off-in); err != nil {
						t.Fatal(err)
					}
					return off - in, b
				}
			}
		}
		sums := map[int]uint32{}
		for k := 0; k <= bad; k++ {
			_, b := seg(k)
			sums[k] = storage.Checksum(b)
		}
		start, b := seg(bad)
		flip := start + 37
		if err := l.segs.WriteAt(l.chain, []byte{b[37] ^ 0x20}, flip); err != nil {
			t.Fatal(err)
		}
		r := storage.NewChainBitReader(l.segs, l.chain, l.bits)
		r.SetVerify(func(off, n int64) error {
			first, _, _ := storage.SegAt(off)
			last, _, _ := storage.SegAt(off + n - 1)
			for k := first; k <= last; k++ {
				if _, b := seg(k); storage.Checksum(b) != sums[k] {
					return &storage.CorruptionError{File: "list", Offset: start, Segment: uint32(k), Detail: "segment checksum"}
				}
			}
			return nil
		})
		cur, err := NewCursor(l.lay, r)
		if err != nil {
			t.Fatal(err)
		}
		n := len(l.want)
		// The first entry that reads a byte of the bad segment: its element
		// ends there, or — Type I reads the next element's tid to close a
		// run of same-tid elements — the next element's header does.
		want := -1
		for p := 0; p < n && want < 0; p++ {
			last := int64(l.logical.Len())
			if p+1 < n {
				last = int64(l.offAt[p+1])
				if typ == TypeI {
					last += int64(l.lay.LTid)
				}
			}
			if (last-1)/8 >= start {
				want = p
			}
		}
		tids, pos := make([]model.TID, n), make([]int64, n)
		for i := range tids {
			tids[i], pos[i] = model.TID(i), int64(i)
		}
		sink := &entrySink{got: make([]Entry, n)}
		for i := range sink.got {
			sink.got[i] = Entry{NDF: true}
		}
		k, err := cur.FillBatch(tids, pos, sink)
		var ce *storage.CorruptionError
		if !errors.As(err, &ce) || ce.Segment != bad {
			t.Fatalf("type %v: FillBatch over a flipped byte = %d, %v; want a corruption error in segment %d", typ, k, err, bad)
		}
		if k != want {
			t.Fatalf("type %v: first unresolved entry %d, want %d (the first to read segment %d)", typ, k, want, bad)
		}
		for i := range n {
			wantE := l.want[i]
			if i >= k {
				wantE = Entry{NDF: true} // unresolved: the sink never saw it
			}
			if !sameEntry(sink.got[i], wantE) {
				t.Fatalf("type %v: entry %d (first unresolved %d) = %+v, want %+v", typ, i, k, sink.got[i], wantE)
			}
		}
		r.Close()
	}
}

// TestNumericCursorOverChains does the same for Type IV's positional seeks
// across extent boundaries.
func TestNumericCursorOverChains(t *testing.T) {
	pool := storage.NewPool(256, 1<<20)
	segs := storage.NewSegStore(storage.NewFile(pool, storage.NewMemDevice()), 0)
	rng := rand.New(rand.NewSource(73))
	lay := numLayout(TypeIV)
	enc, _ := NewEncoder(lay)
	chain, _ := segs.Create()

	codes := make([]uint64, 300)
	ndf := make([]bool, 300)
	var w bitio.Writer
	for i := range codes {
		ndf[i] = rng.Intn(3) == 0
		codes[i] = uint64(rng.Intn(255))
		if err := enc.EncodeNumeric(&w, 0, codes[i], ndf[i]); err != nil {
			t.Fatal(err)
		}
	}
	bitLen, err := storage.AppendBits(segs, chain, 0, w.Bytes(), w.Len())
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := NewCursor(lay, storage.NewChainBitReader(segs, chain, bitLen))
	// Sparse driver: visit every third position, as after deletions.
	for pos := 0; pos < 300; pos += 3 {
		e, err := cur.MoveTo(0, int64(pos))
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if e.NDF != ndf[pos] {
			t.Fatalf("pos %d: NDF %v want %v", pos, e.NDF, ndf[pos])
		}
		if !e.NDF && e.Code != codes[pos] {
			t.Fatalf("pos %d: code %d want %d", pos, e.Code, codes[pos])
		}
	}
}
