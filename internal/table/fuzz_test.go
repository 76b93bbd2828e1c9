package table

import (
	"testing"

	"github.com/sparsewide/iva/internal/model"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// either parse or error, never panic or over-read.
func FuzzDecodeRecord(f *testing.F) {
	rec, err := encodeRecord(nil, 7, map[model.AttrID]model.Value{
		0: model.Text("canon", "cannon"),
		3: model.Num(230),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec[4:]) // body without the length prefix
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 255, 255}) // huge claimed attr count
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := decodeRecord(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode without error (the decoder
		// only accepts well-formed values).
		if _, err := encodeRecord(nil, tp.TID, tp.Values); err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks the inverse direction with
// fuzzer-chosen scalar inputs.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(1), "hello", 3.14, uint8(2))
	f.Fuzz(func(t *testing.T, tid uint32, s string, num float64, reps uint8) {
		if len(s) == 0 || len(s) > model.MaxStringLen {
			return
		}
		strs := make([]string, 1+int(reps)%3)
		for i := range strs {
			strs[i] = s
		}
		vals := map[model.AttrID]model.Value{
			0: model.Text(strs...),
			1: model.Num(num),
		}
		rec, err := encodeRecord(nil, model.TID(tid), vals)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := decodeRecord(rec[4:])
		if err != nil {
			t.Fatal(err)
		}
		if tp.TID != model.TID(tid) {
			t.Fatalf("tid %d != %d", tp.TID, tid)
		}
		for a, want := range vals {
			got, ok := tp.Get(a)
			if !ok || !got.Equal(want) {
				t.Fatalf("attr %d: %v != %v", a, got, want)
			}
		}
	})
}
