package table

import (
	"encoding/binary"
	"testing"

	"github.com/sparsewide/iva/internal/model"
)

// fuzzKinds is the catalog the record fuzzers walk against: attributes 1 and
// 3 numeric, the rest text.
var fuzzKinds = []model.Kind{model.KindText, model.KindNumeric, model.KindText, model.KindNumeric, model.KindText}

// bodyOf strips the length word off an encoded record.
func bodyOf(rec []byte) []byte {
	_, k := binary.Uvarint(rec)
	return rec[k:]
}

// FuzzDecodeRecord feeds arbitrary bytes to the record walker against a
// catalog: they must either walk or return an error, never panic or read past
// the end. A walk that succeeds yields strictly ascending ids the catalog
// knows, each with its catalog kind, and a tuple whose values are valid
// re-encodes to a record that walks to the same tuple.
func FuzzDecodeRecord(f *testing.F) {
	rec, err := encodeRecord(nil, 7, map[model.AttrID]model.Value{
		0: model.Text("canon", "cannon"),
		3: model.Num(230),
		4: model.Text("x"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bodyOf(rec))
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})                  // huge claimed attribute count
	f.Add([]byte{1, 1, 0x0a})                                       // an id past the catalog
	f.Add([]byte{1, 1, 0x03, 0, 0, 0, 0, 0, 0, 0, 0})               // a numeric field marked multi-string
	f.Add([]byte{1, 2, 0x00, 1, 'a', 0x00, 0, 0, 0, 0, 0, 0, 0, 0}) // gaps 0 and 0: ids 0 and 1
	f.Fuzz(func(t *testing.T, data []byte) {
		w := Walk(data, fuzzKinds)
		n := 0
		var fld Field
		prev := -1
		for w.Next(&fld) {
			if int(fld.Attr) <= prev || int(fld.Attr) >= len(fuzzKinds) || fld.Kind != fuzzKinds[fld.Attr] {
				t.Fatalf("field %d: attribute %d of kind %v after %d", n, fld.Attr, fld.Kind, prev)
			}
			prev = int(fld.Attr)
			n++
		}
		tp, err := decodeRecord(Walk(data, fuzzKinds))
		if (err != nil) != (w.Err() != nil) {
			t.Fatalf("decode error %v, walk error %v", err, w.Err())
		}
		if err != nil {
			return
		}
		if len(tp.Values) != n {
			t.Fatalf("walk saw %d fields, decode kept %d", n, len(tp.Values))
		}
		for _, v := range tp.Values {
			if v.Validate() != nil {
				return // the walker does not judge values; Append refuses them
			}
		}
		rec, err := encodeRecord(nil, tp.TID, tp.Values)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := decodeRecord(Walk(bodyOf(rec), fuzzKinds))
		if err != nil || again.TID != tp.TID || len(again.Values) != len(tp.Values) {
			t.Fatalf("re-encoded record walks to %+v (%v), want %+v", again, err, tp)
		}
		for a, v := range tp.Values {
			if got, ok := again.Get(a); !ok || !got.Equal(v) {
				t.Fatalf("attribute %d: %v after re-encoding, want %v", a, got, v)
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks the inverse direction with fuzzer-chosen
// scalar inputs, an attribute as far from the one before it as the fuzzer
// likes (a gap of any width), and a catalog that holds exactly the attributes
// written.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(1), "hello", 3.14, uint8(2), uint16(0))
	f.Add(uint32(1<<31), "x", -1.0, uint8(0), uint16(200))
	f.Fuzz(func(t *testing.T, tid uint32, s string, num float64, reps uint8, gap uint16) {
		if len(s) == 0 || len(s) > model.MaxStringLen {
			return
		}
		strs := make([]string, 1+int(reps)%3)
		for i := range strs {
			strs[i] = s
		}
		far := model.AttrID(2 + int(gap))
		kinds := make([]model.Kind, far+1)
		for i := range kinds {
			kinds[i] = model.KindText
		}
		kinds[1] = model.KindNumeric
		vals := map[model.AttrID]model.Value{
			0:   model.Text(strs...),
			1:   model.Num(num),
			far: model.Text(s),
		}
		rec, err := encodeRecord(nil, model.TID(tid), vals)
		if err != nil {
			if vals[1].Validate() != nil {
				return
			}
			t.Fatal(err)
		}
		if n, k := binary.Uvarint(rec); k <= 0 || int(n) != len(rec)-k {
			t.Fatalf("length word %d (%d bytes) over a %d-byte record", n, k, len(rec))
		}
		tp, err := decodeRecord(Walk(bodyOf(rec), kinds))
		if err != nil {
			t.Fatal(err)
		}
		if tp.TID != model.TID(tid) {
			t.Fatalf("tid %d != %d", tp.TID, tid)
		}
		if len(tp.Values) != len(vals) {
			t.Fatalf("%d values, want %d", len(tp.Values), len(vals))
		}
		for a, want := range vals {
			got, ok := tp.Get(a)
			if !ok || !got.Equal(want) {
				t.Fatalf("attr %d: %v != %v", a, got, want)
			}
		}
		if _, err := decodeRecord(Walk(bodyOf(rec), kinds[:far])); err == nil {
			t.Fatal("a catalog without the last attribute walked the record")
		}
	})
}
