package vector

import (
	"fmt"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
)

// fuzzLayout derives a valid Layout from four fuzz bytes, honoring the
// kind/type constraints Validate enforces (II/III are text-only, IV is
// numeric-only).
func fuzzLayout(t *testing.T, sel [4]byte) Layout {
	lay := Layout{Type: ListType(sel[0]%4 + 1)}
	switch lay.Type {
	case TypeII, TypeIII:
		lay.Kind = model.KindText
	case TypeIV:
		lay.Kind = model.KindNumeric
	default:
		if sel[0]&4 != 0 {
			lay.Kind = model.KindText
		} else {
			lay.Kind = model.KindNumeric
		}
	}
	lay.LTid = 8 + int(sel[1])%25 // 8..32: every tid below 256 fits
	lay.LNum = 2 + int(sel[2])%15 // 2..16: counts up to 3 fit
	lay.VecBits = 1 + int(sel[3])%63
	if lay.Kind == model.KindText {
		codec, err := signature.NewCodec(1+int(sel[3])%4, float64(1+sel[1]%8)/8)
		if err != nil {
			t.Fatal(err)
		}
		lay.Codec = codec
	}
	if lay.Type == TypeIV {
		lay.NDFCode = 1<<uint(lay.VecBits) - 1
	}
	if err := lay.Validate(); err != nil {
		t.Fatalf("derived layout invalid: %v", err)
	}
	return lay
}

// FuzzVectorList encodes a fuzzer-chosen element sequence under a
// fuzzer-chosen (but legal) layout, decodes it back with a Cursor — one
// MoveTo per position, then the batch kernel from a fuzzer-chosen checkpoint
// with fuzzer-chosen tombstones and batch size, over raw or packed storage —
// and demands exact agreement; then it points a cursor of the same layout at
// the raw fuzz bytes and walks it until error to prove hostile bit streams
// are rejected without panics.
func FuzzVectorList(f *testing.F) {
	f.Add([]byte{0, 10, 3, 20, 0xff, 0x0f, 0xf0, 7, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 0, 0x55, 0xaa, 0x55, 0xaa})
	f.Add([]byte{2, 31, 15, 62, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{3, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 0xa3, 0x52, 0x9e, 1, 2, 3, 4, 17, 6, 7, 8, 9, 31, 11, 12, 13, 14, 45, 16, 17, 18, 19, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 1<<12 {
			return
		}
		lay := fuzzLayout(t, [4]byte{data[0], data[1], data[2], data[3]})
		body := data[4:]

		// Encode one element per tuple-list position; body bytes decide
		// ndf/defined and the payload.
		enc, err := NewEncoder(lay)
		if err != nil {
			t.Fatal(err)
		}
		n := len(body)
		if n > 40 {
			n = 40
		}
		l := &batchList{lay: lay, offAt: make([]int, n), want: make([]Entry, n)}
		w := &l.logical
		for i := 0; i < n; i++ {
			b := body[i]
			l.offAt[i] = w.Len()
			e := &l.want[i]
			e.NDF = b%5 == 0
			tid := model.TID(i)
			if lay.Kind == model.KindNumeric {
				// Keep defined codes clear of the Type IV ndf code.
				code := uint64(b)
				if max := uint64(1)<<uint(lay.VecBits) - 1; code >= max {
					code = max - 1
				}
				if code == lay.NDFCode {
					code = 0
				}
				if !e.NDF {
					e.Code = code
				}
				if err := enc.EncodeNumeric(w, tid, code, e.NDF); err != nil {
					t.Fatalf("elem %d: %v", i, err)
				}
				continue
			}
			if !e.NDF {
				ns := int(b)%3 + 1
				if lay.Type != TypeI && ns >= 1<<uint(lay.LNum) {
					ns = 1
				}
				for j := 0; j < ns; j++ {
					e.Sigs = append(e.Sigs, lay.Codec.Encode(fmt.Sprintf("s%d-%d-%c", i, j, 'a'+b%26)))
				}
			}
			if err := enc.EncodeText(w, tid, e.Sigs); err != nil {
				t.Fatalf("elem %d: %v", i, err)
			}
		}

		cur, err := NewCursor(lay, l.raw())
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range l.want {
			got, err := cur.MoveTo(model.TID(i), int64(i))
			if err != nil {
				t.Fatalf("MoveTo(%d): %v", i, err)
			}
			if !sameEntry(got, want) {
				t.Fatalf("pos %d: MoveTo = %+v, encoded %+v", i, got, want)
			}
		}

		if n > 0 {
			start := int(data[1]>>5) * n / 8
			var live []int
			for p := start; p < n; p++ {
				if body[p]%7 != 3 { // the rest are tombstones the driver skips
					live = append(live, p)
				}
			}
			src := l.raw()
			if data[3]&0x80 != 0 {
				stripe := 1 + n/3
				src = l.packed(t, stripe, n/stripe*stripe)
			}
			bc, err := NewCursorAt(lay, src, int64(l.offAt[start]), int64(start))
			if err != nil {
				t.Fatal(err)
			}
			bc.EnableScratch()
			batch := 1 + int(data[2]>>4)
			for i, got := range fillAll(t, bc, live, batch) {
				if !sameEntry(got, l.want[live[i]]) {
					t.Fatalf("batch %d from %d, pos %d: FillBatch = %+v, encoded %+v", batch, start, live[i], got, l.want[live[i]])
				}
			}
		}

		// Hostile stream: the raw fuzz bytes under the same layout. Every
		// MoveTo must return cleanly (an element, an NDF, or an error) —
		// never panic, never loop past the buffer.
		hc, err := NewCursor(lay, MemSource{R: bitio.NewReader(body, -1)})
		if err != nil {
			t.Fatal(err)
		}
		hc.EnableScratch()
		for i := 0; i < 2*len(body)+8; i++ {
			if _, err := hc.MoveTo(model.TID(i), int64(i)); err != nil {
				break
			}
		}
	})
}
