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
// two copying reads through the pool — the length word, then body and trailer
// — into buf, and the same checks.
func copyRead(t *Table, ptr int64, buf *[]byte) (body []byte, next int64, err error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 0, 512)
	}
	b := *buf
	if err := t.f.ReadAt(b[:4], ptr); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n == 0 || n > maxRecordLen {
		return nil, 0, &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: fmt.Sprintf("bad record length %d", n)}
	}
	end := 4 + int(n)
	size := end + recordTrailerLen
	if cap(b) < size {
		grown := make([]byte, 4, 2*size)
		copy(grown, b[:4])
		b, *buf = grown, grown
	}
	rec := b[:size]
	if err := t.f.ReadAt(rec[4:], ptr+4); err != nil {
		return nil, 0, err
	}
	if recordCRC(rec[:end], ptr) != binary.LittleEndian.Uint32(rec[end:]) {
		return nil, 0, &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: "record checksum mismatch"}
	}
	return rec[4:end], ptr + int64(size), nil
}

const (
	layoutPage = 128 // small enough for a record to outgrow it
	// A record of one text attribute holding one string of L bytes: length word
	// 4, tid 4, attribute count 2, attribute id 4, kind 1, string count 1,
	// string length 1, L, trailer 4.
	layoutOverhead = 21
)

type layoutCase struct {
	name string
	ptr  int64
	size int
}

// layoutTable builds a table on layoutPage-byte pages whose records hit every
// position a record can take against a page end. Fillers put each case at its
// offset; they are records like any other and are read and compared too.
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
		cases = append(cases, layoutCase{name, ptr, layoutOverhead + l})
	}
	// at appends a filler that ends at in-page offset in, so that the next
	// record starts there.
	at := func(in int) {
		gap := (in - int(tb.dataEnd%layoutPage) + 2*layoutPage) % layoutPage
		for gap < layoutOverhead+1 {
			gap += layoutPage
		}
		add("filler", gap-layoutOverhead)
	}
	at(40)
	add("ends exactly at a page end", layoutPage-40-layoutOverhead)
	add("starts at a page start", 30)
	add("shares its page with the one before", 20)
	at(layoutPage - 2)
	add("length word straddles", 10)
	at(layoutPage - 4)
	add("length word ends at the page end", 10)
	at(60)
	add("body straddles", 100)
	at(layoutPage - layoutOverhead - 10 + 2)
	add("trailer straddles", 10)
	at(layoutPage - layoutOverhead - 10)
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
		switch {
		case strings.HasPrefix(c.name, "ends exactly"), strings.HasPrefix(c.name, "trailer ends"):
			if end != layoutPage {
				t.Fatalf("%s: ends at in-page offset %d", c.name, end)
			}
		case strings.HasPrefix(c.name, "length word straddles"):
			if in+4 <= layoutPage || in >= layoutPage {
				t.Fatalf("%s: starts at in-page offset %d", c.name, in)
			}
		case strings.HasPrefix(c.name, "trailer straddles"):
			if end-4 >= layoutPage || end <= layoutPage {
				t.Fatalf("%s: ends at in-page offset %d", c.name, end)
			}
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
		ref, err := decodeRecord(want[c.ptr])
		if err != nil || tp.TID != ref.TID || !tp.Values[0].Equal(ref.Values[0]) {
			t.Fatalf("Fetch %s: %+v, the reference bytes decode to %+v (%v)", c.name, tp, ref, err)
		}
	}
	i := 0
	err := tb.ScanRecords(func(ptr int64, body []byte) error {
		if i >= len(cases) || ptr != cases[i].ptr || !bytes.Equal(body, want[ptr]) {
			return fmt.Errorf("record %d of the scan: at %d, body %x", i, ptr, body)
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
		if c.ptr%layoutPage+4 > layoutPage {
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
			if err := tb.FetchRecord(cases[ci-1].ptr, &warm); err != nil && off >= c.ptr+4 {
				t.Fatalf("%s, byte %d flipped: the record before it: %v", c.name, off-c.ptr, err)
			}
			before := warm.Body
			if err := tb.FetchRecord(c.ptr, &warm); !errors.As(err, &ce) {
				t.Fatalf("%s, byte %d flipped, page pinned: err %v, want *CorruptionError", c.name, off-c.ptr, err)
			}
			if len(warm.Body) > 0 && len(before) > 0 && &warm.Body[0] != &before[0] {
				t.Fatalf("%s, byte %d flipped: the failed read replaced the body", c.name, off-c.ptr)
			}
			if err := tb.ScanRecords(func(int64, []byte) error { return nil }); !errors.As(err, &ce) {
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
