package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteBitsKnownLayout(t *testing.T) {
	// Writing 0b101 (3 bits) then 0b0110 (4 bits) must produce 1010110x.
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0b0110, 4)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10101100 {
		t.Fatalf("bytes = %08b, want 10101100", got[0])
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 0)
	if w.Len() != 0 {
		t.Fatalf("zero-width write advanced to %d bits", w.Len())
	}
}

func TestRoundTripRandomWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type field struct {
		v     uint64
		width int
	}
	for trial := 0; trial < 200; trial++ {
		var fields []field
		var w Writer
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			width := 1 + rng.Intn(64)
			v := rng.Uint64()
			if width < 64 {
				v &= 1<<width - 1
			}
			fields = append(fields, field{v, width})
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, f := range fields {
			got, err := r.ReadBits(f.width)
			if err != nil {
				t.Fatalf("trial %d field %d: %v", trial, i, err)
			}
			if got != f.v {
				t.Fatalf("trial %d field %d: got %x want %x (width %d)", trial, i, got, f.v, f.width)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits remain", trial, r.Remaining())
		}
	}
}

func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(300)
		nw := (width + 63) / 64
		ws := make([]uint64, nw)
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		// Zero bits beyond width so comparison is exact.
		if rem := width & 63; rem != 0 {
			ws[nw-1] &= ^uint64(0) << (64 - rem)
		}
		var w Writer
		w.WriteBits(0b11, 2) // misalign
		w.WriteWords(ws, width)
		r := NewReader(w.Bytes(), w.Len())
		if _, err := r.ReadBits(2); err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, nw)
		if err := r.ReadWords(dst, width); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range ws {
			if dst[i] != ws[i] {
				t.Fatalf("trial %d word %d: got %x want %x (width %d)", trial, i, dst[i], ws[i], width)
			}
		}
	}
}

func TestSeekSkip(t *testing.T) {
	var w Writer
	for i := 0; i < 10; i++ {
		w.WriteBits(uint64(i), 8)
	}
	r := NewReader(w.Bytes(), w.Len())
	if err := r.Seek(24); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(8)
	if err != nil || v != 3 {
		t.Fatalf("after seek: v=%d err=%v, want 3", v, err)
	}
	if err := r.Skip(8); err != nil {
		t.Fatal(err)
	}
	v, _ = r.ReadBits(8)
	if v != 5 {
		t.Fatalf("after skip: v=%d, want 5", v)
	}
	if err := r.Seek(-1); err == nil {
		t.Fatal("negative seek accepted")
	}
	if err := r.Skip(1000); err == nil {
		t.Fatal("skip past end accepted")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9, 1<<32 - 1: 32}
	for v, want := range cases {
		if got := BitsFor(v); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestBitsForProperty(t *testing.T) {
	f := func(v uint64) bool {
		n := BitsFor(v)
		if n < 1 || n > 64 {
			return false
		}
		// v must fit in n bits and (if n > 1) not in n-1 bits.
		if n < 64 && v>>uint(n) != 0 {
			return false
		}
		if n > 1 && v>>uint(n-1) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripSingleValue(t *testing.T) {
	f := func(v uint64, w8 uint8) bool {
		width := int(w8%64) + 1
		if width < 64 {
			v &= 1<<width - 1
		}
		var wr Writer
		wr.WriteBits(v, width)
		r := NewReader(wr.Bytes(), wr.Len())
		got, err := r.ReadBits(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteBits(123, 32)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBits(0xAB, 8)
	if w.Bytes()[0] != 0xAB {
		t.Fatal("writer unusable after Reset")
	}
}

func BenchmarkWriteBits(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 17)
	}
}

func TestReadBitsNearBufferTail(t *testing.T) {
	// The word-at-a-time fast path loads up to 9 bytes; reads whose fields
	// end inside the last few bytes must fall back to the per-byte loop and
	// still decode the same values.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		var w Writer
		var fields []struct {
			v     uint64
			width int
		}
		// Short buffers: every field sits within 9 bytes of the end.
		total := 0
		for total < 40 {
			width := 1 + rng.Intn(40)
			v := rng.Uint64() & (1<<uint(width) - 1)
			w.WriteBits(v, width)
			fields = append(fields, struct {
				v     uint64
				width int
			}{v, width})
			total += width
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, f := range fields {
			got, err := r.ReadBits(f.width)
			if err != nil {
				t.Fatalf("trial %d field %d: %v", trial, i, err)
			}
			if got != f.v {
				t.Fatalf("trial %d field %d: got %x want %x (width %d)", trial, i, got, f.v, f.width)
			}
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	var w Writer
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 17)
	}
	r := NewReader(w.Bytes(), w.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 17 {
			r.Seek(0)
		}
		r.ReadBits(17)
	}
}

func BenchmarkReadWords(b *testing.B) {
	const width = 192 // three words per signature
	rng := rand.New(rand.NewSource(31))
	var w Writer
	w.WriteBits(0b10110, 5) // misalign every subsequent word read
	sig := make([]uint64, 3)
	for i := 0; i < 2048; i++ {
		for j := range sig {
			sig[j] = rng.Uint64()
		}
		w.WriteWords(sig, width)
	}
	r := NewReader(w.Bytes(), w.Len())
	dst := make([]uint64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < width {
			r.Seek(0)
			r.Skip(5)
		}
		if err := r.ReadWords(dst, width); err != nil {
			b.Fatal(err)
		}
	}
}
