package bitio

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadBits drives a Writer with a fuzzer-chosen op script, then replays
// the script against the produced buffer and demands every value round-trip
// exactly. The script bytes double as the value stream, so the fuzzer mutates
// widths, values and alignment together. Afterwards the reader is over-read
// to confirm the ErrShortBuffer boundary is exact, and the raw input is also
// decoded as an arbitrary bit stream to prove Reader never panics on
// hostile bytes.
func FuzzReadBits(f *testing.F) {
	f.Add([]byte{0x01, 0x3f, 0xff, 0x40, 0x00, 0x07, 0xaa})
	f.Add([]byte{0x00})
	f.Add([]byte{0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80}, 20))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			return
		}
		// Pass 1: interpret the script as (width, value...) ops and write.
		type op struct {
			width int
			val   uint64
		}
		var (
			w   Writer
			ops []op
		)
		for i := 0; i < len(script); {
			width := int(script[i] % 65) // 0..64
			i++
			nb := (width + 7) / 8
			var val uint64
			for j := 0; j < nb && i < len(script); j++ {
				val = val<<8 | uint64(script[i])
				i++
			}
			if width < 64 {
				val &= 1<<uint(width) - 1
			}
			ops = append(ops, op{width, val})
			w.WriteBits(val, width)
		}
		total := 0
		for _, o := range ops {
			total += o.width
		}
		if w.Len() != total {
			t.Fatalf("writer holds %d bits, ops wrote %d", w.Len(), total)
		}

		// Pass 2: replay against the buffer.
		r := NewReader(w.Bytes(), w.Len())
		for i, o := range ops {
			got, err := r.ReadBits(o.width)
			if err != nil {
				t.Fatalf("op %d: ReadBits(%d): %v", i, o.width, err)
			}
			if got != o.val {
				t.Fatalf("op %d: ReadBits(%d) = %#x, want %#x", i, o.width, got, o.val)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("reader has %d bits left after replay", r.Remaining())
		}
		// Over-read by one bit must fail cleanly, not wrap or panic.
		if _, err := r.ReadBits(1); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("over-read: got %v, want ErrShortBuffer", err)
		}

		// Pass 3: replay bit-by-bit from a fresh reader; single-bit reads must
		// agree with the wide reads.
		r2 := NewReader(w.Bytes(), w.Len())
		for i, o := range ops {
			var v uint64
			for j := 0; j < o.width; j++ {
				b, err := r2.ReadBits(1)
				if err != nil {
					t.Fatalf("op %d bit %d: %v", i, j, err)
				}
				v = v<<1 | b
			}
			if v != o.val {
				t.Fatalf("op %d: bitwise read = %#x, want %#x", i, o.width, v)
			}
		}

		// Pass 4: the raw input as a hostile bit stream — exhaust it with
		// script-derived widths and seeks; nothing may panic.
		r3 := NewReader(script, -1)
		for i := 0; r3.Remaining() > 0; i++ {
			width := int(script[i%len(script)])%64 + 1
			if width > r3.Remaining() {
				width = r3.Remaining()
			}
			if _, err := r3.ReadBits(width); err != nil {
				t.Fatalf("raw decode: ReadBits(%d) with %d remaining: %v", width, r3.Remaining()+width, err)
			}
		}
		if err := r3.Seek(0); err != nil {
			t.Fatalf("seek 0: %v", err)
		}
		if err := r3.Seek(8*len(script) + 1); err == nil {
			t.Fatal("seek past end succeeded")
		}
	})
}
