package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// copyRead is the record reader Table.read replaced, kept as the reference:
// two copying reads through the pool — the bytes that can hold the length
// word, then the rest of the record — into buf, and the same checks.
func copyRead(t *Table, ptr int64, buf *[]byte) (body []byte, next int64, err error) {
	if cap(*buf) < maxLenWord {
		*buf = make([]byte, 0, 512)
	}
	b := *buf
	word := b[:min(maxLenWord, int(t.f.Size()-ptr))]
	if err := t.f.ReadAt(word, ptr); err != nil {
		return nil, 0, err
	}
	n, k := binary.Uvarint(word)
	if k <= 0 || n == 0 || n > maxRecordLen {
		return nil, 0, &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: fmt.Sprintf("bad record length %d", n)}
	}
	end := k + int(n)
	size := end + recordTrailerLen
	if cap(b) < size {
		grown := make([]byte, len(word), 2*size)
		copy(grown, word)
		b, *buf = grown, grown
	}
	rec := b[:size]
	if err := t.f.ReadAt(rec[len(word):], ptr+int64(len(word))); err != nil {
		return nil, 0, err
	}
	if recordCRC(rec[:end], ptr) != binary.LittleEndian.Uint32(rec[end:]) {
		return nil, 0, &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: "record checksum mismatch"}
	}
	return rec[k:end], ptr + int64(size), nil
}

const layoutPage = 128 // small enough for a record to outgrow it

// layoutSize is the size of a record of one text attribute holding one string
// of l bytes, and of its length word: the word, then a body of tid 1, attribute
// count 1, field header 1, string length 1 and the l bytes, then the trailer 4.
func layoutSize(l int) (size, word int) {
	word = len(binary.AppendUvarint(nil, uint64(4+l)))
	return word + 4 + l + recordTrailerLen, word
}

// layoutLen inverts layoutSize: the string length of a record of size bytes,
// if there is one.
func layoutLen(size int) (int, bool) {
	for _, word := range []int{1, 2} {
		if l := size - word - 4 - recordTrailerLen; l >= 1 && l <= model.MaxStringLen {
			if s, _ := layoutSize(l); s == size {
				return l, true
			}
		}
	}
	return 0, false
}

type layoutCase struct {
	name       string
	ptr        int64
	size, word int
}

// layoutTable builds a table on layoutPage-byte pages whose records hit every
// position a record can take against a page end — the length word, one byte
// or two, included. Fillers put each case at its offset; they are records
// like any other and are read and compared too.
func layoutTable(t testing.TB) (*Table, *storage.Pool, []layoutCase) {
	pool := storage.NewPoolShards(layoutPage, 64*layoutPage, 1)
	cat := NewCatalog()
	tb, err := New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		t.Fatal(err)
	}
	text, err := cat.AddAttr("S", model.KindText)
	if err != nil {
		t.Fatal(err)
	}
	var cases []layoutCase
	add := func(name string, l int) {
		s := strings.Repeat(string(rune('a'+len(cases)%26)), l)
		_, ptr, err := tb.Append(map[model.AttrID]model.Value{text: model.Text(s)})
		if err != nil {
			t.Fatal(err)
		}
		size, word := layoutSize(l)
		cases = append(cases, layoutCase{name, ptr, size, word})
	}
	// sized appends a case of the given total size.
	sized := func(name string, size int) {
		l, ok := layoutLen(size)
		if !ok {
			t.Fatalf("%s: no record is %d bytes long", name, size)
		}
		add(name, l)
	}
	// at appends a filler that ends at in-page offset in, so that the next
	// record starts there.
	at := func(in int) {
		gap := (in - int(tb.dataEnd%layoutPage) + 2*layoutPage) % layoutPage
		for _, ok := layoutLen(gap); !ok; _, ok = layoutLen(gap) {
			gap += layoutPage
		}
		sized("filler", gap)
	}
	short, _ := layoutSize(10)
	at(40)
	sized("ends exactly at a page end", layoutPage-40)
	add("starts at a page start", 30)
	add("shares its page with the one before", 20)
	at(layoutPage - 1)
	add("one-byte length word is the page's last byte", 10)
	at(layoutPage - 1)
	add("two-byte length word straddles", 200)
	at(layoutPage - 2)
	add("two-byte length word ends at the page end", 200)
	at(60)
	add("body straddles", 100)
	at(layoutPage - short + 2)
	add("trailer straddles", 10)
	at(layoutPage - short)
	add("trailer ends at the page end", 10)
	at(5)
	add("longer than a page", 250)
	at(layoutPage - 1)
	add("longer than two pages from the last byte of one", 255)
	if err := tb.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		in, end := int(c.ptr%layoutPage), int(c.ptr%layoutPage)+c.size
		ok := true
		switch {
		case strings.HasPrefix(c.name, "ends exactly"), strings.HasPrefix(c.name, "trailer ends"):
			ok = end == layoutPage
		case strings.HasPrefix(c.name, "one-byte"):
			ok = c.word == 1 && in == layoutPage-1
		case strings.HasSuffix(c.name, "word straddles"), strings.HasPrefix(c.name, "longer than two"):
			ok = c.word == 2 && in == layoutPage-1
		case strings.HasSuffix(c.name, "word ends at the page end"):
			ok = c.word == 2 && in == layoutPage-2
		case strings.HasPrefix(c.name, "trailer straddles"):
			ok = end-recordTrailerLen < layoutPage && end > layoutPage
		}
		if !ok {
			t.Fatalf("%s: %d bytes (length word %d) at in-page offset %d", c.name, c.size, c.word, in)
		}
	}
	return tb, pool, cases
}

// TestPinnedReadMatchesCopyRead: through every layout case, FetchRecord (one
// Record reused in file order, in reverse, and a fresh one per read) and
// ScanRecords return the bytes, and the next-record offsets, of the copy
// reader; Fetch decodes the same tuple; no pin outlives its Record.
func TestPinnedReadMatchesCopyRead(t *testing.T) {
	tb, pool, cases := layoutTable(t)
	cat := tb.Catalog()
	var buf []byte
	want := make(map[int64][]byte)
	next := int64(headerSize)
	for _, c := range cases {
		if c.ptr != next {
			t.Fatalf("%s: at %d, the record before it ends at %d", c.name, c.ptr, next)
		}
		body, n, err := copyRead(tb, c.ptr, &buf)
		if err != nil {
			t.Fatalf("%s: reference read: %v", c.name, err)
		}
		if int(n-c.ptr) != c.size {
			t.Fatalf("%s: %d bytes long, laid out as %d", c.name, n-c.ptr, c.size)
		}
		want[c.ptr], next = append([]byte(nil), body...), n
	}
	check := func(how string, c layoutCase, r *Record) {
		t.Helper()
		if err := tb.FetchRecord(c.ptr, r); err != nil {
			t.Fatalf("%s, %s: %v", how, c.name, err)
		}
		if !bytes.Equal(r.Body, want[c.ptr]) || r.next != c.ptr+int64(c.size) {
			t.Fatalf("%s, %s: body %x next %d, the copy reader has %x next %d", how, c.name, r.Body, r.next, want[c.ptr], c.ptr+int64(c.size))
		}
	}
	var shared Record
	for _, c := range cases {
		check("in file order", c, &shared)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check("in reverse", cases[i], &shared)
	}
	if pool.PinnedFrames() != 1 {
		t.Fatalf("a Record in use holds %d pins, want 1", pool.PinnedFrames())
	}
	shared.Release()
	shared.Release() // idempotent
	for _, c := range cases {
		var r Record
		check("fresh", c, &r)
		r.Release()
		tp, err := tb.Fetch(c.ptr)
		if err != nil {
			t.Fatalf("Fetch %s: %v", c.name, err)
		}
		ref, err := decodeRecord(Walk(want[c.ptr], cat.Kinds()))
		if err != nil || tp.TID != ref.TID || !tp.Values[0].Equal(ref.Values[0]) {
			t.Fatalf("Fetch %s: %+v, the reference bytes decode to %+v (%v)", c.name, tp, ref, err)
		}
	}
	i := 0
	err := tb.ScanRecords(func(ptr int64, w Walker) error {
		if i >= len(cases) || ptr != cases[i].ptr || !bytes.Equal(w.buf, want[ptr]) {
			return fmt.Errorf("record %d of the scan: at %d, body %x", i, ptr, w.buf)
		}
		i++
		return nil
	})
	if err != nil || i != len(cases) {
		t.Fatalf("ScanRecords: %d of %d records, %v", i, len(cases), err)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d pins left behind", n)
	}
}

// TestPinnedReadTouchesPageOnce: a record on the page its Record already
// holds is read without entering the pool, and a straddling one enters it only
// for the pages behind the pinned one.
func TestPinnedReadTouchesPageOnce(t *testing.T) {
	tb, pool, cases := layoutTable(t)
	touches := func() int64 { s := pool.Stats().Snapshot(); return s.CacheHits + s.PhysReads }
	var r Record
	defer r.Release()
	for i, c := range cases {
		before := touches()
		if err := tb.FetchRecord(c.ptr, &r); err != nil {
			t.Fatal(err)
		}
		first, last := c.ptr/layoutPage, (c.ptr+int64(c.size)-1)/layoutPage
		want := last - first // the pages behind the record's first
		if i == 0 || cases[i-1].ptr/layoutPage != first {
			want++ // the pin
		}
		if c.ptr%layoutPage+int64(c.word) > layoutPage {
			want++ // a straddling length word is read for itself, then with the record
		}
		if got := touches() - before; got != want {
			t.Errorf("%s: %d page touches, want %d", c.name, got, want)
		}
	}
}

// TestPinnedReadDetectsCorruption flips one bit in every byte of every layout
// case — length word, body and trailer, on either side of a page end — and
// reads the record through a fresh Record, through one whose pin is on the
// record's page already, and through ScanRecords: always *CorruptionError, and
// the Record never offers the damaged body.
func TestPinnedReadDetectsCorruption(t *testing.T) {
	tb, pool, cases := layoutTable(t)
	for ci, c := range cases {
		if c.name == "filler" {
			continue
		}
		for off := c.ptr; off < c.ptr+int64(c.size); off++ {
			var orig [1]byte
			if err := tb.f.ReadAt(orig[:], off); err != nil {
				t.Fatal(err)
			}
			flipped := [1]byte{orig[0] ^ 1<<(off%8)}
			if err := tb.f.WriteAt(flipped[:], off); err != nil {
				t.Fatal(err)
			}
			var fresh, warm Record
			var ce *storage.CorruptionError
			if err := tb.FetchRecord(c.ptr, &fresh); !errors.As(err, &ce) {
				t.Fatalf("%s, byte %d flipped: err %v, want *CorruptionError", c.name, off-c.ptr, err)
			}
			if fresh.Body != nil {
				t.Fatalf("%s, byte %d flipped: the failed read left a body to walk", c.name, off-c.ptr)
			}
			if err := tb.FetchRecord(cases[ci-1].ptr, &warm); err != nil && off >= c.ptr+int64(c.word) {
				t.Fatalf("%s, byte %d flipped: the record before it: %v", c.name, off-c.ptr, err)
			}
			before := warm.Body
			if err := tb.FetchRecord(c.ptr, &warm); !errors.As(err, &ce) {
				t.Fatalf("%s, byte %d flipped, page pinned: err %v, want *CorruptionError", c.name, off-c.ptr, err)
			}
			if len(warm.Body) > 0 && len(before) > 0 && &warm.Body[0] != &before[0] {
				t.Fatalf("%s, byte %d flipped: the failed read replaced the body", c.name, off-c.ptr)
			}
			if err := tb.ScanRecords(func(int64, Walker) error { return nil }); !errors.As(err, &ce) {
				t.Fatalf("%s, byte %d flipped: scan err %v, want *CorruptionError", c.name, off-c.ptr, err)
			}
			fresh.Release()
			warm.Release()
			if err := tb.f.WriteAt(orig[:], off); err != nil {
				t.Fatal(err)
			}
		}
		var r Record
		if err := tb.FetchRecord(c.ptr, &r); err != nil {
			t.Fatalf("%s restored: %v", c.name, err)
		}
		r.Release()
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d pins left behind", n)
	}
}

// BenchmarkFetchRecord is one verified record read on a warm pool: through the
// pinned page, and through the copy reader it replaced.
func BenchmarkFetchRecord(b *testing.B) {
	tb, ptrs := benchRecords(b)
	b.Run("pinned", func(b *testing.B) {
		var r Record
		defer r.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tb.FetchRecord(ptrs[i*7%len(ptrs)], &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := copyRead(tb, ptrs[i*7%len(ptrs)], &buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
