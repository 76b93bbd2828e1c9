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
// fuzzer-chosen (but legal) layout, decodes it back with a Cursor and
// demands exact agreement; then it points a cursor of the same layout at the
// raw fuzz bytes and walks it until error to prove hostile bit streams are
// rejected without panics.
func FuzzVectorList(f *testing.F) {
	f.Add([]byte{0, 10, 3, 20, 0xff, 0x0f, 0xf0, 7, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 0, 0x55, 0xaa, 0x55, 0xaa})
	f.Add([]byte{2, 31, 15, 62, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{3, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 1<<12 {
			return
		}
		lay := fuzzLayout(t, [4]byte{data[0], data[1], data[2], data[3]})
		body := data[4:]

		// Encode one element per tuple-list position; body bytes decide
		// ndf/defined and the payload.
		type elem struct {
			ndf  bool
			code uint64
			strs []string
		}
		enc, err := NewEncoder(lay)
		if err != nil {
			t.Fatal(err)
		}
		n := len(body)
		if n > 40 {
			n = 40
		}
		var w bitio.Writer
		elems := make([]elem, n)
		for i := 0; i < n; i++ {
			b := body[i]
			e := &elems[i]
			e.ndf = b%5 == 0
			tid := model.TID(i)
			if lay.Kind == model.KindNumeric {
				// Keep defined codes clear of the Type IV ndf code.
				e.code = uint64(b)
				if max := uint64(1)<<uint(lay.VecBits) - 1; e.code >= max {
					e.code = max - 1
				}
				if e.code == lay.NDFCode {
					e.code = 0
				}
				if err := enc.EncodeNumeric(&w, tid, e.code, e.ndf); err != nil {
					t.Fatalf("elem %d: %v", i, err)
				}
				continue
			}
			var sigs []signature.Sig
			if !e.ndf {
				ns := int(b)%3 + 1
				if lay.Type != TypeI && ns >= 1<<uint(lay.LNum) {
					ns = 1
				}
				for j := 0; j < ns; j++ {
					s := fmt.Sprintf("s%d-%d-%c", i, j, 'a'+b%26)
					e.strs = append(e.strs, s)
					sigs = append(sigs, lay.Codec.Encode(s))
				}
			}
			if err := enc.EncodeText(&w, tid, sigs); err != nil {
				t.Fatalf("elem %d: %v", i, err)
			}
		}

		cur, err := NewCursor(lay, MemSource{R: bitio.NewReader(w.Bytes(), w.Len())})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range elems {
			got, err := cur.MoveTo(model.TID(i), int64(i))
			if err != nil {
				t.Fatalf("MoveTo(%d): %v", i, err)
			}
			if got.NDF != e.ndf {
				t.Fatalf("pos %d: NDF = %v, want %v", i, got.NDF, e.ndf)
			}
			if e.ndf {
				continue
			}
			if lay.Kind == model.KindNumeric {
				if got.Code != e.code {
					t.Fatalf("pos %d: code %d, want %d", i, got.Code, e.code)
				}
				continue
			}
			if len(got.Sigs) != len(e.strs) {
				t.Fatalf("pos %d: %d sigs, want %d", i, len(got.Sigs), len(e.strs))
			}
			for j, s := range e.strs {
				want := lay.Codec.Encode(s)
				if got.Sigs[j].Len != want.Len {
					t.Fatalf("pos %d sig %d: Len %d, want %d", i, j, got.Sigs[j].Len, want.Len)
				}
				for k := range want.H {
					if got.Sigs[j].H[k] != want.H[k] {
						t.Fatalf("pos %d sig %d word %d: %#x, want %#x", i, j, k, got.Sigs[j].H[k], want.H[k])
					}
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
