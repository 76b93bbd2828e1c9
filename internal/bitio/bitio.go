// Package bitio provides MSB-first bit-level readers and writers over byte
// slices. The iVA-file vector lists are bit-packed (tuple ids, string counts
// and approximation vectors occupy exactly as many bits as their width
// requires, as in the paper's Fig. 6), so every on-disk list structure in
// this repository is produced by a Writer and consumed by a Reader.
//
// Bit order is most-significant-bit first within each byte: the first bit
// written lands in bit 7 of byte 0. Values wider than one word are handled
// by the WriteBits/ReadBits pair in up-to-64-bit chunks; arbitrarily wide
// vectors (long nG-signatures) use WriteWords/ReadWords.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by Reader methods when fewer bits remain than
// were requested.
var ErrShortBuffer = errors.New("bitio: short buffer")

// Writer appends bits to an internal byte buffer.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns a writer whose buffer has the given capacity in bytes.
func NewWriter(capBytes int) *Writer {
	return &Writer{buf: make([]byte, 0, capBytes)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the underlying buffer. The final byte is zero-padded.
// The returned slice aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to zero bits, retaining the buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	for width > 0 {
		off := w.nbit & 7
		if off == 0 {
			w.buf = append(w.buf, 0)
		}
		room := 8 - off // bits available in the current byte
		take := width
		if take > room {
			take = room
		}
		// Bits of v to place: the top `take` of the remaining `width`.
		chunk := byte(v>>(width-take)) & (1<<take - 1)
		w.buf[len(w.buf)-1] |= chunk << (room - take)
		w.nbit += take
		width -= take
	}
}

// WriteWords appends `width` bits from the word slice ws, where ws packs the
// bit string big-endian-by-word: bit i of the stream is bit (63-i%64) of
// ws[i/64]. This is the layout produced by signature encoding.
func (w *Writer) WriteWords(ws []uint64, width int) {
	for width >= 64 {
		w.WriteBits(ws[0], 64)
		ws = ws[1:]
		width -= 64
	}
	if width > 0 {
		w.WriteBits(ws[0]>>(64-width), width)
	}
}

// Reader consumes bits from a byte slice.
type Reader struct {
	buf  []byte
	pos  int // bit position
	nbit int // total readable bits
}

// NewReader returns a reader over buf exposing nbits bits. If nbits < 0 the
// whole slice (8*len(buf) bits) is readable.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 || nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	return &Reader{buf: buf, nbit: nbits}
}

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Bytes returns the buffer the reader reads. It aliases the reader's input.
func (r *Reader) Bytes() []byte { return r.buf }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Seek moves the read position to the absolute bit offset pos.
func (r *Reader) Seek(pos int) error {
	if pos < 0 || pos > r.nbit {
		return fmt.Errorf("bitio: seek to %d outside [0,%d]", pos, r.nbit)
	}
	r.pos = pos
	return nil
}

// Skip advances the position by n bits.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.pos+n > r.nbit {
		return ErrShortBuffer
	}
	r.pos += n
	return nil
}

// ReadBits reads `width` bits (≤64) MSB-first and returns them in the low
// bits of the result.
//
// The hot path assembles up to 9 bytes into one 64-bit word instead of
// looping byte by byte; the loop remains only for reads near the end of the
// buffer where a full word load would run past it.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortBuffer
	}
	i := r.pos >> 3
	if off := r.pos & 7; i+9 <= len(r.buf) {
		x := binary.BigEndian.Uint64(r.buf[i:])
		if off > 0 {
			x = x<<off | uint64(r.buf[i+8])>>(8-off)
		}
		r.pos += width
		return x >> (64 - width), nil
	} else if off+width <= 64 && i+8 <= len(r.buf) {
		x := binary.BigEndian.Uint64(r.buf[i:]) << off
		r.pos += width
		return x >> (64 - width), nil
	}
	var v uint64
	for width > 0 {
		off := r.pos & 7
		room := 8 - off
		take := width
		if take > room {
			take = room
		}
		chunk := (r.buf[r.pos>>3] >> (room - take)) & (1<<take - 1)
		v = v<<take | uint64(chunk)
		r.pos += take
		width -= take
	}
	return v, nil
}

// ReadWords reads `width` bits into dst using the WriteWords layout.
// dst must have at least (width+63)/64 words; extra words are untouched.
func (r *Reader) ReadWords(dst []uint64, width int) error {
	if r.pos+width > r.nbit {
		return ErrShortBuffer
	}
	i := 0
	for width >= 64 {
		v, err := r.ReadBits(64)
		if err != nil {
			return err
		}
		dst[i] = v
		i++
		width -= 64
	}
	if width > 0 {
		v, err := r.ReadBits(width)
		if err != nil {
			return err
		}
		dst[i] = v << (64 - width)
	}
	return nil
}

// BitsFor returns the number of bits required to represent v
// (at least 1, so that zero-valued fields still occupy a slot).
func BitsFor(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
