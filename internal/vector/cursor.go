package vector

import (
	"encoding/binary"
	"fmt"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
)

// Cursor is the scanning pointer of §IV-A over one attribute's vector list.
// The query loop decodes the tuple list a batch at a time and calls FillBatch
// for each related attribute; the cursor hands back the decoded element of
// every tuple that has one, and the rest are ndf. MoveTo is the same for one
// tuple.
//
// For tid-addressed lists (Types I and II) this is a merge-join of the list
// against the batch's tuple ids: the cursor freezes on an element whose tid
// exceeds the current tuple — it keeps the element pending until the scan
// catches up, across batches — so undefined tuples cost one comparison.
// Elements whose tids the driver skipped (deleted tuples) are discarded in
// passing. For positional lists (Types III and IV) the cursor advances to the
// element at each requested tuple-list position, skipping intervening
// elements' bits.
//
// Positions (and, correspondingly, tids) must strictly increase within a
// batch and from one call to the next: a cursor is a forward scan, not an
// index.
type Cursor struct {
	lay Layout
	src BitSource

	// Type I/II freeze state: the last element header read but not yet
	// consumed.
	pending    bool
	pendingTID model.TID

	// Type III/IV positional state: tuple-list position of the next
	// element in the stream.
	nextPos int64

	lastPos int64 // last requested position (−1: none), for ordering checks

	// pos is the cursor's bit offset in the stream and end the stream's
	// length. view is the source's window the cursor decodes from in place
	// (BitSource.Peek): its first bit is stream bit base, and lim is the
	// last offset from which a whole 64-bit word of stream can be loaded
	// out of it. The source's own position moves only for the reads a view
	// cannot serve.
	pos, end  int64
	view      []byte
	base, lim int64

	// One element's signatures and their cH words, reused from element to
	// element.
	sigs  []signature.Sig
	words []uint64

	one Entry // MoveTo's batch of one lands here
}

// Sink receives the elements FillBatch decodes; j is the index of the batch
// entry the element belongs to. Signatures are the cursor's scratch, valid
// only during the call.
type Sink interface {
	Text(j int, sigs []signature.Sig)
	Num(j int, code uint64)
}

// NewCursor returns a cursor at the start of a list.
func NewCursor(lay Layout, src BitSource) (*Cursor, error) {
	return NewCursorAt(lay, src, 0, 0)
}

// NewCursorAt returns a cursor resuming a list at a stripe checkpoint, see
// ResetAt.
func NewCursorAt(lay Layout, src BitSource, off int64, startPos int64) (*Cursor, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	c := &Cursor{lay: lay, src: src}
	if lay.Kind == model.KindText {
		c.words = make([]uint64, 0, 64) // one allocation covers most elements
	}
	return c, c.ResetAt(off, startPos)
}

// ResetAt repositions the cursor at a stripe checkpoint, keeping its scratch.
// off is the bit offset of the next unconsumed element header (the normalized
// form checkpoints record: never mid-element, never a read-ahead frozen
// header) and startPos is the tuple-list position the next call will be at
// least at. Type IV lists seek absolutely per element, so off is redundant
// for them but still positioned for uniformity.
func (c *Cursor) ResetAt(off, startPos int64) error {
	c.drop()
	if err := c.src.SeekBit(off); err != nil {
		return err
	}
	c.pending = false
	c.pos, c.end = off, off+c.src.Remaining()
	c.nextPos, c.lastPos = startPos, startPos-1
	return nil
}

// EnableScratch does nothing: a cursor always decodes an element's
// signatures into per-cursor buffers, valid until the next element is
// decoded. The benchmark module's cells still call it.
func (c *Cursor) EnableScratch() {}

// MoveTo synchronizes the cursor with the tuple at tuple-list position pos
// holding id tid, and returns that tuple's decoded element. Its signatures
// are valid until the next call.
func (c *Cursor) MoveTo(tid model.TID, pos int64) (Entry, error) {
	c.one = Entry{NDF: true}
	tids, poss := [1]model.TID{tid}, [1]int64{pos}
	if _, err := c.FillBatch(tids[:], poss[:], (*oneSink)(c)); err != nil {
		return Entry{}, err
	}
	return c.one, nil
}

type oneSink Cursor

func (s *oneSink) Text(_ int, sigs []signature.Sig) { s.one = Entry{Sigs: sigs} }
func (s *oneSink) Num(_ int, code uint64)           { s.one = Entry{Code: code} }

// FillBatch synchronizes the cursor with a batch of live tuple-list entries —
// tuple tids[j] at position pos[j] — and hands sink the decoded element of
// every entry that has one; an entry sink is not called for is ndf on the
// attribute. On error it returns the index of the first entry left
// unresolved: entries before it are settled, sink calls included.
func (c *Cursor) FillBatch(tids []model.TID, pos []int64, sink Sink) (int, error) {
	if len(pos) == 0 {
		return 0, nil
	}
	if pos[0] <= c.lastPos {
		return 0, fmt.Errorf("vector: cursor positions must increase (%d after %d)", pos[0], c.lastPos)
	}
	c.lastPos = pos[len(pos)-1]
	switch c.lay.Type {
	case TypeI:
		return c.fillTID(tids, sink, false)
	case TypeII:
		return c.fillTID(tids, sink, true)
	case TypeIII:
		return c.fillPositionalText(pos, sink)
	case TypeIV:
		return c.fillPositionalNumeric(pos, sink)
	}
	return 0, fmt.Errorf("vector: bad list type %v", c.lay.Type)
}

// fillTID implements Types I and II. withCount selects the Type II layout.
func (c *Cursor) fillTID(tids []model.TID, sink Sink, withCount bool) (int, error) {
	for j := 0; j < len(tids); {
		if !c.pending {
			if c.remaining() < int64(c.lay.LTid) {
				// Tail reached: everything further is ndf (§IV-A step 5).
				break
			}
			v, err := c.take(c.lay.LTid)
			if err != nil {
				return j, err
			}
			c.pending = true
			c.pendingTID = model.TID(v)
		}
		// Freeze: tuples below the pending element have none here.
		for j < len(tids) && tids[j] < c.pendingTID {
			j++
		}
		switch {
		case j == len(tids):
		case tids[j] > c.pendingTID:
			// Element of a tuple the driver skipped (deleted): discard.
			if err := c.discardBody(withCount); err != nil {
				return j, err
			}
			c.pending = false
		default:
			if err := c.consumeMatch(j, tids[j], withCount, sink); err != nil {
				return j, err
			}
			j++
		}
	}
	return len(tids), nil
}

// consumeMatch decodes the pending element (and, for Type I text values
// with multiple strings, all consecutive elements sharing the tid) for
// batch entry j.
func (c *Cursor) consumeMatch(j int, tid model.TID, withCount bool, sink Sink) error {
	c.pending = false
	if c.lay.Kind == model.KindNumeric {
		code, err := c.take(c.lay.VecBits)
		if err != nil {
			return err
		}
		sink.Num(j, code)
		return nil
	}
	if withCount {
		return c.countedSigs(j, sink)
	}
	// Type I: one signature per element; collect consecutive same-tid
	// elements.
	c.sigs, c.words = c.sigs[:0], c.words[:0]
	for {
		if err := c.readSig(); err != nil {
			return err
		}
		if c.remaining() < int64(c.lay.LTid) {
			break
		}
		v, err := c.take(c.lay.LTid)
		if err != nil {
			return err
		}
		if next := model.TID(v); next != tid {
			c.pending = true
			c.pendingTID = next
			break
		}
	}
	sink.Text(j, c.sigs)
	return nil
}

// countedSigs decodes a <num, vector...> body (Types II and III) for batch
// entry j; a zero count is the Type III ndf element.
func (c *Cursor) countedSigs(j int, sink Sink) error {
	n, err := c.take(c.lay.LNum)
	if err != nil || n == 0 {
		return err
	}
	c.sigs, c.words = c.sigs[:0], c.words[:0]
	for ; n > 0; n-- {
		if err := c.readSig(); err != nil {
			return err
		}
	}
	sink.Text(j, c.sigs)
	return nil
}

// discardBody skips the body of an element (tid header, if any, already
// read).
func (c *Cursor) discardBody(withCount bool) error {
	if c.lay.Kind == model.KindNumeric {
		return c.skip(c.lay.VecBits)
	}
	if !withCount {
		return c.skipSig()
	}
	n, err := c.take(c.lay.LNum)
	for ; err == nil && n > 0; n-- {
		err = c.skipSig()
	}
	return err
}

// fillPositionalText implements Type III.
func (c *Cursor) fillPositionalText(pos []int64, sink Sink) (int, error) {
	for j, p := range pos {
		for ; c.nextPos < p; c.nextPos++ {
			// Skip the element of an intervening tuple.
			if err := c.discardBody(true); err != nil {
				return j, err
			}
		}
		c.nextPos++
		if err := c.countedSigs(j, sink); err != nil {
			return j, err
		}
	}
	return len(pos), nil
}

// fillPositionalNumeric implements Type IV: fixed-width elements allow a
// direct seek.
func (c *Cursor) fillPositionalNumeric(pos []int64, sink Sink) (int, error) {
	for j, p := range pos {
		c.pos = p * int64(c.lay.VecBits)
		code, err := c.take(c.lay.VecBits)
		if err != nil {
			return j, err
		}
		if code != c.lay.NDFCode {
			sink.Num(j, code)
		}
	}
	return len(pos), nil
}

// readSig decodes one signature onto c.sigs. In the common case its cL and
// a cH of at most 56 bits are one word of the view; otherwise it takes the
// cL, then the cH a word at a time (the multi-word branch, which also serves
// a signature across a seam).
func (c *Cursor) readSig() error {
	if x, ok := c.word(); ok {
		lv := int(x >> (64 - signature.LenBits))
		if w := c.lay.Codec.SigBits(lv); w <= 64-signature.LenBits {
			k := len(c.words)
			c.words = append(c.words, x<<signature.LenBits&^(^uint64(0)>>uint(w)))
			c.sigs = append(c.sigs, signature.Sig{Len: lv, H: c.words[k : k+1 : k+1]})
			c.pos += int64(signature.LenBits + w)
			return nil
		}
	}
	lv, err := c.take(signature.LenBits)
	if err != nil {
		return err
	}
	k := len(c.words)
	for rest := c.lay.Codec.SigBits(int(lv)); rest > 0; rest -= 64 {
		w := min(rest, 64)
		h, err := c.take(w)
		if err != nil {
			return err
		}
		c.words = append(c.words, h<<uint(64-w))
	}
	// A later append may move c.words; this slice keeps the words it holds.
	c.sigs = append(c.sigs, signature.Sig{Len: int(lv), H: c.words[k:len(c.words):len(c.words)]})
	return nil
}

// skipSig passes over one signature: its cL gives the width of the cH
// bits it skips unread.
func (c *Cursor) skipSig() error {
	lv, err := c.take(signature.LenBits)
	if err != nil {
		return err
	}
	return c.skip(c.lay.Codec.SigBits(int(lv)))
}

// word returns the 64 bits of stream from the cursor's position on, if the
// view holds them: one load where they lie.
func (c *Cursor) word() (uint64, bool) {
	if c.pos > c.lim {
		return 0, false
	}
	rel := c.pos - c.base
	b, sh := c.view[rel>>3:], uint(rel&7)
	return binary.BigEndian.Uint64(b)<<sh | uint64(b[8])>>(8-sh), true
}

// take consumes the next width (1 to 64) bits.
func (c *Cursor) take(width int) (uint64, error) {
	x, ok := c.word()
	if !ok {
		return c.takeSlow(width)
	}
	c.pos += int64(width)
	return x >> uint(64-width), nil
}

// takeSlow is take past the view: it peeks the source's window at the
// cursor's position, and a value that even that window cannot serve — a
// segment seam or the end of the stream lies within 64 bits — is read from
// the source.
func (c *Cursor) takeSlow(width int) (uint64, error) {
	view, base, err := c.src.Peek(c.pos)
	if err != nil {
		return 0, err
	}
	c.view, c.base = view, base
	c.lim = min(c.end-64, base+8*int64(len(view)-8)-1)
	if x, ok := c.word(); ok {
		c.pos += int64(width)
		return x >> uint(64-width), nil
	}
	if err := c.seek(); err != nil {
		return 0, err
	}
	c.pos += int64(width)
	return c.src.ReadBits(width)
}

// seek moves the source to the cursor's position, for a read no view can
// serve; the read may move the source's window, so the view is dropped.
func (c *Cursor) seek() error {
	c.drop()
	return c.src.SeekBit(c.pos)
}

func (c *Cursor) drop() { c.view, c.lim = nil, -1 }

// skip passes over bits unread, failing past the end of the stream.
func (c *Cursor) skip(bits int) error {
	if c.pos += int64(bits); c.pos > c.end {
		return fmt.Errorf("vector: skip past the end of the list (%d bits over)", c.pos-c.end)
	}
	return nil
}

// remaining is the count of bits after the cursor's position.
func (c *Cursor) remaining() int64 { return c.end - c.pos }
