package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// FuzzSuperblock builds a small real store, stomps the fuzzer's bytes over
// the head of the index device — superblock first, then segment metadata —
// and re-opens it. Open must either fail with an error or hand back an index
// whose accessors, Search and Check run without panicking or unbounded
// allocation: a corrupt or hostile file may be rejected, never trusted. And
// there is no checksum-free parse to steer into: whenever Open succeeds, the
// superblock it read names the current version and carries a valid trailer.
func FuzzSuperblock(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A refused version behind the right magic (the committed corpus holds
	// one seed per refused version).
	f.Add([]byte{'F', 'A', 'V', 'i', 0x0a, 0x00, 0x00, 0x00})
	// The current version, hostile counters, and a trailer that vouches for
	// them: past the gate and the checksum, into the field validation.
	hostile := binary.LittleEndian.AppendUint32(nil, indexMagic)
	hostile = binary.LittleEndian.AppendUint32(hostile, indexVersion)
	hostile = append(hostile, bytes.Repeat([]byte{0xff}, sbCRCOff-len(hostile))...)
	f.Add(binary.LittleEndian.AppendUint32(hostile, storage.Checksum(hostile)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		pool := storage.NewPool(0, 1<<20)
		tblDev, idxDev := storage.NewMemDevice(), storage.NewMemDevice()
		tblF := storage.NewFile(pool, tblDev)
		idxF := storage.NewFile(pool, idxDev)
		cat := table.NewCatalog()
		num, err := cat.AddAttr("n", model.KindNumeric)
		if err != nil {
			t.Fatal(err)
		}
		txt, err := cat.AddAttr("s", model.KindText)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := table.New(tblF, cat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			vals := map[model.AttrID]model.Value{num: model.Num(float64(i))}
			if i%2 == 0 {
				vals[txt] = model.Text(fmt.Sprintf("v%d", i), "fuzz")
			}
			if _, _, err := tbl.Append(vals); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Sync(); err != nil {
			t.Fatal(err)
		}
		ix, err := Build(tbl, idxF, Options{CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		_ = ix
		tblF.Close()
		idxF.Close()

		// Corrupt the head of the index file and reopen through fresh caches.
		if _, err := idxDev.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		pool2 := storage.NewPool(0, 1<<20)
		tblF2 := storage.NewFile(pool2, tblDev)
		idxF2 := storage.NewFile(pool2, idxDev)
		defer tblF2.Close()
		defer idxF2.Close()
		tbl2, err := table.Open(tblF2, cat)
		if err != nil {
			t.Fatal(err) // table device was not touched
		}
		ix2, err := Open(idxF2, tbl2, Options{})
		if err != nil {
			return // graceful rejection is a correct outcome
		}
		var sb [sbCRCOff + 4]byte
		if _, err := idxDev.ReadAt(sb[:], 0); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(sb[4:]); v != indexVersion {
			t.Fatalf("Open accepted format version %d", v)
		}
		if storage.Checksum(sb[:sbCRCOff]) != binary.LittleEndian.Uint32(sb[sbCRCOff:]) {
			t.Fatal("Open accepted a superblock whose trailer does not verify")
		}
		// The corruption happened to parse: every read path must still be
		// panic-free. Errors are acceptable, wrong-but-clean results are
		// acceptable for a corrupted file; crashes are not.
		_ = ix2.Entries()
		_ = ix2.Deleted()
		q := &model.Query{K: 3}
		q.NumTerm(num, 5)
		_, _, _ = ix2.Search(q, nil)
		_, _ = ix2.Check()
	})
}

// refDecodeRecord is the record decoder FuzzRecordWalk holds the walker
// against: a materialising parser of the table format (FORMAT.md §
// table.swt), written from the grammar and kept simple — every uvarint through
// binary.Uvarint, no fast path, no early exit.
func refDecodeRecord(buf []byte, kinds []model.Kind) (*model.Tuple, error) {
	uvarint := func() (uint64, bool) {
		x, k := binary.Uvarint(buf)
		if k <= 0 {
			return 0, false
		}
		buf = buf[k:]
		return x, true
	}
	tid, ok := uvarint()
	if !ok || tid > math.MaxUint32 {
		return nil, fmt.Errorf("bad tuple id")
	}
	n, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("bad attribute count")
	}
	tp := model.NewTuple(model.TID(tid))
	id := int64(-1)
	for i := uint64(0); i < n; i++ {
		x, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("truncated attribute %d", i)
		}
		if x>>1 >= uint64(len(kinds)) || id+1+int64(x>>1) >= int64(len(kinds)) {
			return nil, fmt.Errorf("unregistered attribute")
		}
		id += 1 + int64(x>>1)
		switch kinds[id] {
		case model.KindNumeric:
			if x&1 != 0 || len(buf) < 8 {
				return nil, fmt.Errorf("bad numeric value")
			}
			tp.Set(model.AttrID(id), model.Num(math.Float64frombits(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case model.KindText:
			ns := 1
			if x&1 != 0 {
				if len(buf) < 1 {
					return nil, fmt.Errorf("truncated text value")
				}
				ns, buf = int(buf[0]), buf[1:]
			}
			strs := make([]string, 0, ns)
			for j := 0; j < ns; j++ {
				if len(buf) < 1 || len(buf) < 1+int(buf[0]) {
					return nil, fmt.Errorf("truncated string")
				}
				strs = append(strs, string(buf[1:1+int(buf[0])]))
				buf = buf[1+int(buf[0]):]
			}
			tp.Set(model.AttrID(id), model.Text(strs...))
		default:
			return nil, fmt.Errorf("unknown kind")
		}
	}
	return tp, nil
}

// sameFloat is == that also holds for two NaNs.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// walkKinds is the catalog of recordWalkSeeds' records: attributes 2 and 3
// numeric, the rest text.
var walkKinds = []model.Kind{model.KindText, model.KindText, model.KindNumeric, model.KindNumeric,
	model.KindText, model.KindText, model.KindText, model.KindText}

// recordWalkSeeds returns the bodies of real records — multi-string values, a
// 255-byte string, a numeric NaN, a lone number — as the table file holds
// them.
func recordWalkSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	f := storage.NewFile(storage.NewPool(0, 1<<20), storage.NewMemDevice())
	cat := table.NewCatalog()
	for a, kind := range walkKinds {
		if _, err := cat.AddAttr(fmt.Sprintf("a%d", a), kind); err != nil {
			tb.Fatal(err)
		}
	}
	tbl, err := table.New(f, cat)
	if err != nil {
		tb.Fatal(err)
	}
	long := make([]byte, model.MaxStringLen)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	var bodies [][]byte
	for _, vals := range []map[model.AttrID]model.Value{
		{0: model.Text("canon", "cannon", "kanon"), 3: model.Num(230)},
		{1: model.Text(string(long)), 2: model.Num(-1), 7: model.Text("x")},
		{3: model.Num(-0.5)},
		{0: model.Text("digital camera"), 1: model.Text("a", "b"), 2: model.Num(1e300), 3: model.Num(0)},
	} {
		_, ptr, err := tbl.Append(vals)
		if err != nil {
			tb.Fatal(err)
		}
		var word [4]byte
		if err := f.ReadAt(word[:], ptr); err != nil {
			tb.Fatal(err)
		}
		n, k := binary.Uvarint(word[:])
		body := make([]byte, n)
		if err := f.ReadAt(body, ptr+int64(k)); err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	// Append refuses a NaN, a damaged pre-CRC record may still hold one: tid 4,
	// one field, attribute 2 (gap 2).
	nan := []byte{4, 1, 2 << 1}
	return append(bodies, binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN())))
}

// FuzzRecordWalk feeds arbitrary bytes to the record walker and to the
// reference decoder above, against walkKinds: they must agree on error versus
// success, on the tuple id and on every (attribute, kind, value);
// table.Table's own Fetch path (decodeRecord, a client of the walker) is
// covered by table's FuzzDecodeRecord. On a record that parses, the
// differences the refine step projects from the bytes — stopping behind the
// largest queried id — must equal metric.TermDiff on the decoded tuple, for a
// fuzzer-chosen text term and numeric term.
func FuzzRecordWalk(f *testing.F) {
	for _, body := range recordWalkSeeds(f) {
		f.Add(body, uint8(0), "cannon", uint8(3), 200.0)
		f.Add(body, uint8(1), "", uint8(2), math.Inf(1))
	}
	f.Add([]byte{}, uint8(0), "a", uint8(1), 0.0)
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(0), "a", uint8(1), 0.0) // huge claimed attr count
	// A text term on a numeric attribute: defined with the other kind.
	f.Add([]byte{9, 1, 2 << 1, 0, 0, 0, 0, 0, 0, 0, 0x40}, uint8(2), "ok", uint8(2), 2.0)
	m := metric.Default()
	f.Fuzz(func(t *testing.T, body []byte, textAttr uint8, qstr string, numAttr uint8, qnum float64) {
		want, wantErr := refDecodeRecord(body, walkKinds)
		w := table.Walk(body, walkKinds)
		got := model.NewTuple(w.TID)
		var fld table.Field
		for w.Next(&fld) {
			if fld.Kind != walkKinds[fld.Attr] {
				t.Fatalf("field of attribute %d: kind %v, the catalog's is %v", fld.Attr, fld.Kind, walkKinds[fld.Attr])
			}
			if fld.Kind == model.KindNumeric {
				got.Set(fld.Attr, model.Num(fld.Num))
				continue
			}
			strs := make([]string, 0, fld.NStr)
			for rest := fld.Strs; len(rest) > 0; {
				var s []byte
				s, rest = table.CutString(rest)
				strs = append(strs, string(s))
			}
			if len(strs) != fld.NStr {
				t.Fatalf("field of attribute %d: NStr %d, payload holds %d strings", fld.Attr, fld.NStr, len(strs))
			}
			got.Set(fld.Attr, model.Text(strs...))
		}
		if (w.Err() != nil) != (wantErr != nil) {
			t.Fatalf("walker error %v, reference decoder error %v", w.Err(), wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.TID != want.TID || len(got.Values) != len(want.Values) {
			t.Fatalf("walker saw tuple %d with %d values, reference %d with %d", got.TID, len(got.Values), want.TID, len(want.Values))
		}
		for a, wv := range want.Values {
			gv, ok := got.Values[a]
			if !ok || gv.Kind != wv.Kind || !sameFloat(gv.Num, wv.Num) || !slices.Equal(gv.Strs, wv.Strs) {
				t.Fatalf("attribute %d: walker %+v, reference %+v", a, gv, wv)
			}
		}

		q := (&model.Query{K: 1}).TextTerm(model.AttrID(textAttr), qstr).NumTerm(model.AttrID(numAttr), qnum)
		terms := make([]termState, len(q.Terms))
		for i, term := range q.Terms {
			terms[i].exact = new(metric.TermExact)
			terms[i].exact.Set(term)
		}
		diffs := make([]float64, len(terms))
		last := model.AttrID(max(textAttr, numAttr))
		if err := projectDiffs(table.Walk(body, walkKinds), terms, last, m.NDFPenalty, diffs); err != nil {
			t.Fatalf("projection fails on a record that decodes: %v", err)
		}
		for i, term := range q.Terms {
			if exact := m.TermDiff(term, want); !sameFloat(diffs[i], exact) {
				t.Fatalf("term %d (%+v): projected difference %v, TermDiff on the decoded tuple %v", i, term, diffs[i], exact)
			}
		}
	})
}
