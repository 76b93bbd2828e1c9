package vector

import (
	"encoding/binary"
	"fmt"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
)

// Block codecs.
//
// A vector list is logically the bit stream the Encoder produces — every
// reader (Cursor, checkpoints) addresses it by logical bit offset. Codec 0
// stores that stream verbatim.
// Codec 1 ("packed") re-stores it as a sequence of self-describing blocks,
// one per sealed checkpoint stripe: a word-aligned container with a skip
// header (element count, decoded length, payload size, first tuple id, a
// CRC32C over the whole block) and a payload that either carries the raw
// bits or a delta transform replacing each element's tuple-id field with a
// narrow gap from its predecessor. Tuple ids within a list are
// non-decreasing, so gaps need BitsFor(maxGap) bits instead of LTid — the
// classic posting-list win. Element bodies are stored verbatim: both the
// transform and its inverse re-parse the element framing (§III-D Types I/II)
// rather than storing lengths, so the transform is fully lossless and costs
// no side information.
//
// Inserts after the last seal append raw logical bits word-aligned behind
// the coded region ("the tail"); BlockSource splices blocks and tail back
// into one logical stream for the unchanged word-at-a-time readers.

// Codec ids recorded per attribute list in the attribute element.
const (
	CodecRaw    uint8 = 0 // the raw bit-packed stream
	CodecPacked uint8 = 1 // word-aligned blocks, skip headers, delta-coded tid gaps
)

// Codec is a pluggable storage transform for one attribute's vector list.
// Implementations transcode whole sealed stripes; the logical encoding the
// Cursor consumes is identical under every codec.
type Codec interface {
	// ID is the on-disk codec id stored in the attribute element.
	ID() uint8
	// Name is the human-readable codec name for stats output.
	Name() string
	// Blocked reports whether lists under this codec store sealed stripes
	// as block containers (false means the physical and logical streams
	// coincide and Seal is never called on the write path).
	Blocked() bool
	// Seal transcodes one sealed stripe of logical bits into a
	// self-describing block, returned as whole 64-bit words.
	Seal(lay Layout, logical []byte, nbits int64) ([]uint64, error)
}

type rawCodec struct{}

func (rawCodec) ID() uint8     { return CodecRaw }
func (rawCodec) Name() string  { return "raw" }
func (rawCodec) Blocked() bool { return false }
func (rawCodec) Seal(lay Layout, logical []byte, nbits int64) ([]uint64, error) {
	return sealBlock(lay, logical, nbits, true)
}

type packedCodec struct{}

func (packedCodec) ID() uint8     { return CodecPacked }
func (packedCodec) Name() string  { return "packed" }
func (packedCodec) Blocked() bool { return true }
func (packedCodec) Seal(lay Layout, logical []byte, nbits int64) ([]uint64, error) {
	return sealBlock(lay, logical, nbits, false)
}

// Raw and Packed are the two built-in codecs.
var (
	Raw    Codec = rawCodec{}
	Packed Codec = packedCodec{}
)

// CodecByID resolves an on-disk codec id.
func CodecByID(id uint8) (Codec, bool) {
	switch id {
	case CodecRaw:
		return Raw, true
	case CodecPacked:
		return Packed, true
	}
	return nil, false
}

// CodecName names a codec id for stats output ("raw", "packed").
func CodecName(id uint8) string {
	if c, ok := CodecByID(id); ok {
		return c.Name()
	}
	return fmt.Sprintf("unknown(%d)", id)
}

// Block container layout. Four header words followed by payloadWords payload
// words; every word is serialized MSB-first (WriteBits(v, 64)), so the block
// occupies exactly (4+payloadWords)*64 bits of the physical stream.
//
//	word 0: magic (32) | elemCount (32)
//	word 1: mode (8) | gapBits (8) | logicalBits (48)
//	word 2: payloadWords (32) | crc32c (32)
//	word 3: firstTID (64)
//
// The CRC32C covers the big-endian byte serialization of the whole block
// with the crc field zeroed. mode 0 payloads carry the logical bits
// verbatim; mode 1 payloads carry (elemCount-1) gap fields of gapBits each,
// then every element's body bits (tuple-id fields stripped) verbatim.
const (
	blockMagic       = 0x69564233 // "iVB3"
	blockHeaderWords = 4
	blockModeRaw     = 0
	blockModeDelta   = 1
	maxBlockLogical  = int64(1)<<48 - 1
)

type blockHeader struct {
	elems        uint32
	mode         uint8
	gapBits      uint8
	logicalBits  int64
	payloadWords int64
	crc          uint32
	firstTID     uint64
}

func (h blockHeader) words() [blockHeaderWords]uint64 {
	return [blockHeaderWords]uint64{
		uint64(blockMagic)<<32 | uint64(h.elems),
		uint64(h.mode)<<56 | uint64(h.gapBits)<<48 | uint64(h.logicalBits),
		uint64(h.payloadWords)<<32 | uint64(h.crc),
		h.firstTID,
	}
}

func corruptBlock(format string, args ...interface{}) error {
	return &storage.CorruptionError{
		File:    "iva.idx",
		Offset:  -1,
		Segment: storage.NoCorruptSegment,
		Detail:  "vector block: " + fmt.Sprintf(format, args...),
	}
}

func parseBlockHeader(w [blockHeaderWords]uint64) (blockHeader, error) {
	var h blockHeader
	if magic := uint32(w[0] >> 32); magic != blockMagic {
		return h, corruptBlock("bad magic %#x", magic)
	}
	h.elems = uint32(w[0])
	h.mode = uint8(w[1] >> 56)
	h.gapBits = uint8(w[1] >> 48)
	h.logicalBits = int64(w[1] & uint64(maxBlockLogical))
	h.payloadWords = int64(w[2] >> 32)
	h.crc = uint32(w[2])
	h.firstTID = w[3]
	if h.mode != blockModeRaw && h.mode != blockModeDelta {
		return h, corruptBlock("unknown mode %d", h.mode)
	}
	if h.logicalBits <= 0 {
		return h, corruptBlock("empty block (logicalBits %d)", h.logicalBits)
	}
	if h.mode == blockModeDelta && (h.gapBits == 0 || h.gapBits > 64 || h.elems == 0) {
		return h, corruptBlock("delta header inconsistent (gapBits %d, elems %d)", h.gapBits, h.elems)
	}
	return h, nil
}

// blockCRC computes the container checksum: CRC32C over the big-endian
// serialization of every word with the crc field zeroed.
func blockCRC(words []uint64) uint32 {
	var buf [8]byte
	crc := uint32(0)
	for i, w := range words {
		if i == 2 {
			w &^= 0xFFFFFFFF // crc field reads as zero
		}
		binary.BigEndian.PutUint64(buf[:], w)
		crc = storage.ChecksumUpdate(crc, buf[:])
	}
	return crc
}

// copyBits streams n bits from src to dst.
func copyBits(dst *bitio.Writer, src *bitio.Reader, n int64) error {
	for n > 0 {
		take := 64
		if n < 64 {
			take = int(n)
		}
		v, err := src.ReadBits(take)
		if err != nil {
			return err
		}
		dst.WriteBits(v, take)
		n -= int64(take)
	}
	return nil
}

// copyBody copies one element body (everything after the tuple-id field)
// from src to dst, parsing the §III-D framing to find its end. Only Types I
// and II carry tuple ids, so only they are delta-eligible.
func copyBody(lay Layout, src *bitio.Reader, dst *bitio.Writer) error {
	copySig := func() error {
		l, err := src.ReadBits(signature.LenBits)
		if err != nil {
			return err
		}
		dst.WriteBits(l, signature.LenBits)
		return copyBits(dst, src, int64(lay.Codec.SigBits(int(l))))
	}
	switch {
	case lay.Type == TypeI && lay.Kind == model.KindText:
		return copySig()
	case lay.Type == TypeI && lay.Kind == model.KindNumeric:
		return copyBits(dst, src, int64(lay.VecBits))
	case lay.Type == TypeII:
		n, err := src.ReadBits(lay.LNum)
		if err != nil {
			return err
		}
		dst.WriteBits(n, lay.LNum)
		for i := uint64(0); i < n; i++ {
			if err := copySig(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("vector: list type %v has no tuple-id framing", lay.Type)
}

// parseElements splits a logical stripe into its per-element tuple ids and
// concatenated body bits. ok is false when the stream does not parse cleanly
// (the caller then stores the stripe raw).
func parseElements(lay Layout, logical []byte, nbits int64) (tids []uint64, bodies *bitio.Writer, ok bool) {
	if lay.Type != TypeI && lay.Type != TypeII {
		return nil, nil, false
	}
	r := bitio.NewReader(logical, int(nbits))
	bodies = &bitio.Writer{}
	var last uint64
	for r.Remaining() > 0 {
		tid, err := r.ReadBits(lay.LTid)
		if err != nil {
			return nil, nil, false
		}
		if len(tids) > 0 && tid < last {
			return nil, nil, false
		}
		if err := copyBody(lay, r, bodies); err != nil {
			return nil, nil, false
		}
		tids = append(tids, tid)
		last = tid
	}
	return tids, bodies, len(tids) > 0
}

// packPayload turns a bit stream into left-justified 64-bit payload words.
func packPayload(buf []byte, nbits int64) []uint64 {
	nw := (nbits + 63) / 64
	out := make([]uint64, nw)
	r := bitio.NewReader(buf, int(nbits))
	for i := range out {
		take := 64
		if rem := nbits - int64(i)*64; rem < 64 {
			take = int(rem)
		}
		v, _ := r.ReadBits(take)
		out[i] = v << (64 - uint(take))
	}
	return out
}

// unpackPayload streams the first nbits bits of the payload words into dst.
func unpackPayload(words []uint64, nbits int64, dst *bitio.Writer) {
	for i, w := range words {
		rem := nbits - int64(i)*64
		if rem <= 0 {
			break
		}
		take := 64
		if rem < 64 {
			take = int(rem)
		}
		dst.WriteBits(w>>(64-uint(take)), take)
	}
}

// sealBlock builds one block container from a sealed stripe's logical bits.
// With forceRaw false it applies the delta transform whenever the stripe
// parses and the transform actually saves bits.
func sealBlock(lay Layout, logical []byte, nbits int64, forceRaw bool) ([]uint64, error) {
	if nbits <= 0 || nbits > maxBlockLogical {
		return nil, fmt.Errorf("vector: cannot seal %d bits", nbits)
	}
	h := blockHeader{mode: blockModeRaw, logicalBits: nbits}
	var payload []uint64
	if !forceRaw {
		if tids, bodies, ok := parseElements(lay, logical, nbits); ok {
			var maxGap uint64
			for i := 1; i < len(tids); i++ {
				if g := tids[i] - tids[i-1]; g > maxGap {
					maxGap = g
				}
			}
			gapBits := bitio.BitsFor(maxGap)
			deltaBits := int64(len(tids)-1)*int64(gapBits) + int64(bodies.Len())
			if deltaBits < nbits {
				var pw bitio.Writer
				for i := 1; i < len(tids); i++ {
					pw.WriteBits(tids[i]-tids[i-1], gapBits)
				}
				if err := copyBits(&pw, bitio.NewReader(bodies.Bytes(), bodies.Len()), int64(bodies.Len())); err != nil {
					return nil, err
				}
				h.mode = blockModeDelta
				h.gapBits = uint8(gapBits)
				h.elems = uint32(len(tids))
				h.firstTID = tids[0]
				payload = packPayload(pw.Bytes(), int64(pw.Len()))
			}
		}
	}
	if h.mode == blockModeRaw {
		payload = packPayload(logical, nbits)
	}
	h.payloadWords = int64(len(payload))
	hw := h.words()
	words := make([]uint64, 0, blockHeaderWords+len(payload))
	words = append(words, hw[:]...)
	words = append(words, payload...)
	crc := blockCRC(words)
	words[2] |= uint64(crc)
	return words, nil
}

// DecodeBlock verifies and decodes one block container back into its
// logical bits, written into out (which is reset). Structural damage and
// checksum mismatches surface as a typed *storage.CorruptionError.
func DecodeBlock(lay Layout, words []uint64, out *bitio.Writer) (int64, error) {
	if len(words) < blockHeaderWords {
		return 0, corruptBlock("truncated header (%d words)", len(words))
	}
	var hw [blockHeaderWords]uint64
	copy(hw[:], words)
	h, err := parseBlockHeader(hw)
	if err != nil {
		return 0, err
	}
	if int64(len(words)) != blockHeaderWords+h.payloadWords {
		return 0, corruptBlock("payload size mismatch (%d words, header says %d)", len(words)-blockHeaderWords, h.payloadWords)
	}
	if got := blockCRC(words); got != h.crc {
		return 0, corruptBlock("checksum mismatch (crc %#x, want %#x)", got, h.crc)
	}
	payload := words[blockHeaderWords:]
	out.Reset()
	switch h.mode {
	case blockModeRaw:
		if h.logicalBits > h.payloadWords*64 {
			return 0, corruptBlock("raw payload shorter than logical length")
		}
		unpackPayload(payload, h.logicalBits, out)
	case blockModeDelta:
		if err := decodeDelta(lay, h, payload, out); err != nil {
			return 0, err
		}
	}
	if int64(out.Len()) != h.logicalBits {
		return 0, corruptBlock("decoded %d bits, header says %d", out.Len(), h.logicalBits)
	}
	return h.logicalBits, nil
}

// decodeDelta inverts the delta transform: gaps back to absolute tuple ids,
// bodies re-interleaved by re-parsing the element framing.
func decodeDelta(lay Layout, h blockHeader, payload []uint64, out *bitio.Writer) error {
	if lay.Type != TypeI && lay.Type != TypeII {
		return corruptBlock("delta mode on list type %v", lay.Type)
	}
	var stream bitio.Writer
	unpackPayload(payload, h.payloadWords*64, &stream)
	r := bitio.NewReader(stream.Bytes(), stream.Len())
	gaps := make([]uint64, int(h.elems)-1)
	for i := range gaps {
		g, err := r.ReadBits(int(h.gapBits))
		if err != nil {
			return corruptBlock("truncated gap table: %v", err)
		}
		gaps[i] = g
	}
	tid := h.firstTID
	for i := uint32(0); i < h.elems; i++ {
		if i > 0 {
			tid += gaps[i-1]
		}
		out.WriteBits(tid, lay.LTid)
		if err := copyBody(lay, r, out); err != nil {
			return corruptBlock("element %d body: %v", i, err)
		}
		if int64(out.Len()) > h.logicalBits {
			return corruptBlock("decoded stream overruns logical length")
		}
	}
	return nil
}

// BlockMeta locates one sealed block within a packed vector list's physical
// stream; the in-memory block directory is a sorted slice of these, rebuilt
// at open time by WalkBlocks from the self-describing headers (it survives
// dropped checkpoint chains, which an open may discard wholesale after damage).
type BlockMeta struct {
	PhysWord     int64 // 64-bit-word offset of the block header
	LogicalStart int64 // logical bit offset of the first decoded bit
	LogicalBits  int64 // decoded logical length
}

// WalkBlocks scans the first codedWords words of a packed list's physical
// stream and rebuilds its block directory from the chained skip headers.
// It also returns the total logical bit length the blocks decode to. Damage
// (bad magic, a block overrunning the coded region) surfaces as a typed
// *storage.CorruptionError; read errors from phys (e.g. a segment checksum
// failure) pass through.
func WalkBlocks(phys BitSource, codedWords int64) ([]BlockMeta, int64, error) {
	var dir []BlockMeta
	var logical int64
	for w := int64(0); w < codedWords; {
		if codedWords-w < blockHeaderWords {
			return nil, 0, corruptBlock("trailing %d words cannot hold a header", codedWords-w)
		}
		if err := phys.SeekBit(w * 64); err != nil {
			return nil, 0, err
		}
		var hw [blockHeaderWords]uint64
		for i := range hw {
			v, err := phys.ReadBits(64)
			if err != nil {
				return nil, 0, err
			}
			hw[i] = v
		}
		h, err := parseBlockHeader(hw)
		if err != nil {
			return nil, 0, err
		}
		if h.payloadWords < 0 || w+blockHeaderWords+h.payloadWords > codedWords {
			return nil, 0, corruptBlock("block at word %d overruns coded region", w)
		}
		dir = append(dir, BlockMeta{PhysWord: w, LogicalStart: logical, LogicalBits: h.logicalBits})
		logical += h.logicalBits
		w += blockHeaderWords + h.payloadWords
	}
	return dir, logical, nil
}

// BlockSource adapts a packed list's physical stream back into the logical
// bit stream the Cursor consumes: reads inside the coded region decode (and
// cache) one block at a time, reads past it fall through to the raw tail
// appended after the last seal. It implements BitSource over logical
// offsets, including the arbitrary absolute seeks positional cursors issue.
type BlockSource struct {
	lay          Layout
	phys         BitSource
	dir          []BlockMeta
	codedWords   int64
	codedLogical int64
	total        int64 // total logical bits (coded + tail)
	pos          int64

	blk   int // directory index of the cached decoded block, -1 none
	dec   bitio.Writer
	rd    *bitio.Reader
	words []uint64
}

// NewBlockSource wraps a packed list. phys must expose at least
// codedWords*64 + (totalLogical - sum(dir.LogicalBits)) bits.
func NewBlockSource(lay Layout, phys BitSource, dir []BlockMeta, codedWords, totalLogical int64) *BlockSource {
	var cl int64
	if n := len(dir); n > 0 {
		cl = dir[n-1].LogicalStart + dir[n-1].LogicalBits
	}
	return &BlockSource{lay: lay, phys: phys, dir: dir, codedWords: codedWords, codedLogical: cl, total: totalLogical, blk: -1}
}

// load ensures the cached decode buffer covers logical position pos (which
// must lie inside the coded region).
func (b *BlockSource) load(pos int64) error {
	if b.blk >= 0 {
		if m := b.dir[b.blk]; pos >= m.LogicalStart && pos < m.LogicalStart+m.LogicalBits {
			return nil
		}
	}
	lo, hi := 0, len(b.dir)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.dir[mid].LogicalStart+b.dir[mid].LogicalBits <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(b.dir) || b.dir[lo].LogicalStart > pos {
		return corruptBlock("logical offset %d outside block directory", pos)
	}
	m := b.dir[lo]
	end := b.codedWords
	if lo+1 < len(b.dir) {
		end = b.dir[lo+1].PhysWord
	}
	nw := int(end - m.PhysWord)
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	if err := b.phys.SeekBit(m.PhysWord * 64); err != nil {
		return err
	}
	for i := range b.words {
		v, err := b.phys.ReadBits(64)
		if err != nil {
			return err
		}
		b.words[i] = v
	}
	n, err := DecodeBlock(b.lay, b.words, &b.dec)
	if err != nil {
		return err
	}
	if n != m.LogicalBits {
		return corruptBlock("block at word %d decoded %d bits, directory says %d", m.PhysWord, n, m.LogicalBits)
	}
	b.blk = lo
	b.rd = bitio.NewReader(b.dec.Bytes(), int(n))
	return nil
}

// ReadBits reads up to 64 bits at the current logical position, assembling
// across block and tail boundaries as needed.
func (b *BlockSource) ReadBits(width int) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	if b.pos+int64(width) > b.total {
		return 0, bitio.ErrShortBuffer
	}
	var v uint64
	for rem := width; rem > 0; {
		take := rem
		var x uint64
		if b.pos >= b.codedLogical {
			if err := b.phys.SeekBit(b.codedWords*64 + (b.pos - b.codedLogical)); err != nil {
				return 0, err
			}
			got, err := b.phys.ReadBits(take)
			if err != nil {
				return 0, err
			}
			x = got
		} else {
			if err := b.load(b.pos); err != nil {
				return 0, err
			}
			m := b.dir[b.blk]
			off := b.pos - m.LogicalStart
			if avail := m.LogicalBits - off; int64(take) > avail {
				take = int(avail)
			}
			if err := b.rd.Seek(int(off)); err != nil {
				return 0, err
			}
			got, err := b.rd.ReadBits(take)
			if err != nil {
				return 0, err
			}
			x = got
		}
		v = v<<uint(take) | x
		b.pos += int64(take)
		rem -= take
	}
	return v, nil
}

// Peek returns the decoded block that holds logical bit offset off, cut to
// its whole bytes, or the raw tail's view of the physical stream.
func (b *BlockSource) Peek(off int64) ([]byte, int64, error) {
	if off < 0 || off >= b.total {
		return nil, 0, nil
	}
	if off >= b.codedLogical {
		view, base, err := b.phys.Peek(b.codedWords*64 + (off - b.codedLogical))
		return view, base - b.codedWords*64 + b.codedLogical, err
	}
	if err := b.load(off); err != nil {
		return nil, 0, err
	}
	m := b.dir[b.blk]
	return b.dec.Bytes()[:m.LogicalBits/8], m.LogicalStart, nil
}

// SeekBit positions the source at an absolute logical bit offset.
func (b *BlockSource) SeekBit(off int64) error {
	if off < 0 || off > b.total {
		return fmt.Errorf("vector: seek to bit %d outside logical stream of %d bits", off, b.total)
	}
	b.pos = off
	return nil
}

// Remaining returns the exact count of logical bits left.
func (b *BlockSource) Remaining() int64 { return b.total - b.pos }
