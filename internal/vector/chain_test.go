package vector

import (
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
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

// TestCursorOverSegmentChains runs the cursor against lists stored in real
// segment chains (crossing extent boundaries), including tail appends after
// the initial build, exactly as the index uses them.
func TestCursorOverSegmentChains(t *testing.T) {
	pool := storage.NewPool(256, 1<<20)
	segs := storage.NewSegStore(storage.NewFile(pool, storage.NewMemDevice()), 0)
	rng := rand.New(rand.NewSource(71))

	for _, typ := range []ListType{TypeI, TypeII, TypeIII} {
		lay := textLayout(t, typ)
		enc, err := NewEncoder(lay)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := segs.Create()
		if err != nil {
			t.Fatal(err)
		}
		col := randomTextColumn(rng, 120, 0.5, 3)

		// Build phase: first 80 tuples in one batch.
		var w bitio.Writer
		for _, tid := range col.tids[:80] {
			if err := enc.EncodeText(&w, tid, encodeStrs(lay, col.strs[tid])); err != nil {
				t.Fatal(err)
			}
		}
		bitLen, err := storage.AppendBits(segs, chain, 0, w.Bytes(), w.Len())
		if err != nil {
			t.Fatal(err)
		}
		// Update phase: remaining tuples appended one at a time (§IV-B).
		for _, tid := range col.tids[80:] {
			var aw bitio.Writer
			if err := enc.EncodeText(&aw, tid, encodeStrs(lay, col.strs[tid])); err != nil {
				t.Fatal(err)
			}
			if bitLen, err = storage.AppendBits(segs, chain, bitLen, aw.Bytes(), aw.Len()); err != nil {
				t.Fatal(err)
			}
		}

		cur, err := NewCursor(lay, storage.NewChainBitReader(segs, chain, bitLen))
		if err != nil {
			t.Fatal(err)
		}
		for pos, tid := range col.tids {
			e, err := cur.MoveTo(tid, int64(pos))
			if err != nil {
				t.Fatalf("type %v MoveTo(%d): %v", typ, tid, err)
			}
			if col.ndf[tid] != e.NDF {
				t.Fatalf("type %v tid %d: NDF %v want %v", typ, tid, e.NDF, col.ndf[tid])
			}
			if !e.NDF && len(e.Sigs) != len(col.strs[tid]) {
				t.Fatalf("type %v tid %d: %d sigs want %d", typ, tid, len(e.Sigs), len(col.strs[tid]))
			}
		}
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
