package storage

import (
	"encoding/binary"
	"fmt"
)

// ChainBitReader reads a bit-packed stream stored in a segment chain. Its
// window is a pinned buffer-pool frame: the reader decodes straight from the
// cached page with zero copies, and the pin guarantees the bytes stay stable
// (writers copy-on-write around pinned frames). A window ends where its
// segment does; a value that straddles the seam is assembled byte by byte.
type ChainBitReader struct {
	s      *SegStore
	c      ChainID
	bitLen int64 // total readable bits

	buf      []byte // current window: a view of the pinned page
	bufStart int64  // logical byte offset of buf[0]; -1 when empty
	pin      *Frame // non-nil while buf is set
	pos      int64  // current bit position

	// verify, when set, is called before a fresh window over logical bytes
	// [off, off+n) is handed to the decoder. The index integrity layer hooks
	// it to checksum each segment on first touch; a non-nil return aborts
	// the read with that error (typically a *CorruptionError).
	verify func(off, n int64) error
}

// NewChainBitReader returns a reader over the first bitLen bits of chain c.
// Callers must Close the reader (or Reset it away) to release its pinned
// window; an abandoned reader holds one page pinned until then.
func NewChainBitReader(s *SegStore, c ChainID, bitLen int64) *ChainBitReader {
	return &ChainBitReader{s: s, c: c, bitLen: bitLen, bufStart: -1}
}

// Reset rebinds the reader to a (possibly different) chain at bit position 0,
// releasing the current window pin. Parallel scan workers use it to reopen
// cursors at stripe checkpoints without reallocating.
func (r *ChainBitReader) Reset(s *SegStore, c ChainID, bitLen int64) {
	r.drop()
	r.s, r.c, r.bitLen = s, c, bitLen
	r.pos = 0
}

// Close releases the reader's pinned window. The reader stays usable (the
// next read re-pins), so pooled readers Close between queries to avoid
// holding pages pinned while idle.
func (r *ChainBitReader) Close() { r.drop() }

// SetVerify installs (or clears) the window-verification hook.
func (r *ChainBitReader) SetVerify(fn func(off, n int64) error) { r.verify = fn }

func (r *ChainBitReader) drop() {
	if r.pin != nil {
		r.pin.Release()
		r.pin = nil
	}
	r.buf, r.bufStart = nil, -1
}

// refill positions the window at byteOff: the run of the segment under it,
// pinned. PinView is the one SegStore call of a window, and itself refuses an
// offset past the chain's capacity.
func (r *ChainBitReader) refill(byteOff int64) error {
	r.drop()
	fr, view, err := r.s.PinView(r.c, byteOff)
	if err != nil {
		return err
	}
	if r.verify != nil {
		if err := r.verify(byteOff, int64(len(view))); err != nil {
			fr.Release()
			return err
		}
	}
	r.pin, r.buf, r.bufStart = fr, view, byteOff
	return nil
}

// BitLen returns the stream length in bits.
func (r *ChainBitReader) BitLen() int64 { return r.bitLen }

// Remaining returns the unread bit count.
func (r *ChainBitReader) Remaining() int64 { return r.bitLen - r.pos }

// SeekBit positions the reader at the absolute bit offset.
func (r *ChainBitReader) SeekBit(off int64) error {
	if off < 0 || off > r.bitLen {
		return fmt.Errorf("storage: bit seek %d outside [0,%d]", off, r.bitLen)
	}
	r.pos = off
	return nil
}

func (r *ChainBitReader) byteAt(byteOff int64) (byte, error) {
	if r.bufStart < 0 || byteOff < r.bufStart || byteOff >= r.bufStart+int64(len(r.buf)) {
		if err := r.refill(byteOff); err != nil {
			return 0, err
		}
	}
	return r.buf[byteOff-r.bufStart], nil
}

// ReadBits reads width (≤64) bits MSB-first.
//
// When the buffered window holds the next 9 bytes, the value is assembled
// with one unaligned-safe 64-bit load instead of the per-byte loop — the
// word-at-a-time fast path the tuple-list and vector-list scans live on.
func (r *ChainBitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("storage: invalid bit width %d", width))
	}
	if r.pos+int64(width) > r.bitLen {
		return 0, fmt.Errorf("storage: bit read past end (pos=%d width=%d len=%d)", r.pos, width, r.bitLen)
	}
	if byteOff := r.pos >> 3; r.bufStart >= 0 && byteOff >= r.bufStart &&
		byteOff+9 <= r.bufStart+int64(len(r.buf)) {
		b := r.buf[byteOff-r.bufStart:]
		x := binary.BigEndian.Uint64(b)
		if off := r.pos & 7; off > 0 {
			x = x<<off | uint64(b[8])>>(8-off)
		}
		r.pos += int64(width)
		return x >> (64 - uint(width)), nil
	}
	var v uint64
	for width > 0 {
		b, err := r.byteAt(r.pos >> 3)
		if err != nil {
			return 0, err
		}
		off := int(r.pos & 7)
		room := 8 - off
		take := width
		if take > room {
			take = room
		}
		chunk := (b >> (room - take)) & (1<<take - 1)
		v = v<<take | uint64(chunk)
		r.pos += int64(take)
		width -= take
	}
	return v, nil
}

// Peek returns the pinned window that holds bit offset off — a view of the
// page, valid until the reader's next call — and the stream offset of its
// first bit, for a decoder that reads in place. The view ends where its
// segment does, so a value across a seam is ReadBits' to assemble, and its
// bits past the end of the stream are not the stream's. Like a read, a peek
// at a byte outside the window pins (and on first touch verifies) the
// segment under it. At or past the end of the stream it returns no view and
// touches nothing.
func (r *ChainBitReader) Peek(off int64) ([]byte, int64, error) {
	if off < 0 || off >= r.bitLen {
		return nil, 0, nil
	}
	if byteOff := off >> 3; byteOff < r.bufStart || byteOff >= r.bufStart+int64(len(r.buf)) {
		if err := r.refill(byteOff); err != nil {
			return nil, 0, err
		}
	}
	return r.buf, 8 * r.bufStart, nil
}

// AppendBits appends the first nbits of src (a bitio.Writer buffer) to chain
// c whose current bit length is bitLen, and returns the new bit length. The
// first appended byte is merged with the stream's trailing partial byte.
func AppendBits(s *SegStore, c ChainID, bitLen int64, src []byte, nbits int) (int64, error) {
	if nbits == 0 {
		return bitLen, nil
	}
	startByte := bitLen >> 3
	rem := int(bitLen & 7)
	if rem == 0 {
		// Byte-aligned: write src directly.
		n := (nbits + 7) / 8
		if err := s.WriteAt(c, src[:n], startByte); err != nil {
			return 0, err
		}
		return bitLen + int64(nbits), nil
	}
	// Merge: shift src right by rem bits and OR into the trailing byte.
	var last [1]byte
	if err := s.ReadAt(c, last[:], startByte); err != nil {
		return 0, err
	}
	total := rem + nbits
	out := make([]byte, (total+7)/8)
	out[0] = last[0] & (0xFF << (8 - rem)) // keep existing high bits
	for i := 0; i < nbits; i++ {
		bit := (src[i>>3] >> (7 - uint(i&7))) & 1
		if bit != 0 {
			p := rem + i
			out[p>>3] |= 1 << (7 - uint(p&7))
		}
	}
	if err := s.WriteAt(c, out, startByte); err != nil {
		return 0, err
	}
	return bitLen + int64(nbits), nil
}
