package vector

import (
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

	// Optional scratch for one element's signatures, see EnableScratch.
	reuse bool
	arena []uint64
	sigs  []signature.Sig

	one Entry // MoveTo's batch of one lands here
}

// Sink receives the elements FillBatch decodes; j is the index of the batch
// entry the element belongs to. Signatures are valid only during the call
// when the cursor decodes into scratch.
type Sink interface {
	Text(j int, sigs []signature.Sig)
	Num(j int, code uint64)
}

// NewCursor returns a cursor at the start of a list.
func NewCursor(lay Layout, src BitSource) (*Cursor, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	return &Cursor{lay: lay, src: src, lastPos: -1}, nil
}

// NewCursorAt returns a cursor resuming a list at a stripe checkpoint, see
// ResetAt.
func NewCursorAt(lay Layout, src BitSource, off int64, startPos int64) (*Cursor, error) {
	c, err := NewCursor(lay, src)
	if err != nil {
		return nil, err
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
	if err := c.src.SeekBit(off); err != nil {
		return err
	}
	c.pending = false
	c.nextPos, c.lastPos = startPos, startPos-1
	return nil
}

// EnableScratch makes the cursor decode an element's signatures into
// reusable per-cursor buffers instead of allocating per signature. They then
// stay valid only until the next element is decoded — during the Sink call,
// or until the next MoveTo — exactly the lifetime the filter loop needs,
// which estimates a distance bound from the element and moves on.
func (c *Cursor) EnableScratch() { c.reuse = true }

// MoveTo synchronizes the cursor with the tuple at tuple-list position pos
// holding id tid, and returns that tuple's decoded element.
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
			if c.src.Remaining() < int64(c.lay.LTid) {
				// Tail reached: everything further is ndf (§IV-A step 5).
				break
			}
			v, err := c.src.ReadBits(c.lay.LTid)
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
		code, err := c.src.ReadBits(c.lay.VecBits)
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
	c.startElement()
	for {
		if err := c.readSig(); err != nil {
			return err
		}
		if c.src.Remaining() < int64(c.lay.LTid) {
			break
		}
		v, err := c.src.ReadBits(c.lay.LTid)
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
	n, err := c.src.ReadBits(c.lay.LNum)
	if err != nil || n == 0 {
		return err
	}
	c.startElement()
	for i := uint64(0); i < n; i++ {
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
		return c.src.SkipBits(int64(c.lay.VecBits))
	}
	if withCount {
		n, err := c.src.ReadBits(c.lay.LNum)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			if err := c.skipSig(); err != nil {
				return err
			}
		}
		return nil
	}
	return c.skipSig()
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
		if err := c.src.SeekBit(p * int64(c.lay.VecBits)); err != nil {
			return j, err
		}
		code, err := c.src.ReadBits(c.lay.VecBits)
		if err != nil {
			return j, err
		}
		if code != c.lay.NDFCode {
			sink.Num(j, code)
		}
	}
	return len(pos), nil
}

// startElement begins a text element's signature list: in the scratch when
// the cursor reuses it, freshly allocated otherwise.
func (c *Cursor) startElement() {
	if c.reuse {
		c.sigs, c.arena = c.sigs[:0], c.arena[:0]
	} else {
		c.sigs = nil
	}
}

// readSig decodes one signature onto c.sigs.
func (c *Cursor) readSig() error {
	lv, err := c.src.ReadBits(signature.LenBits)
	if err != nil {
		return err
	}
	width := c.lay.Codec.SigBits(int(lv))
	words := c.sigWords((width + 63) / 64)
	if err := c.src.ReadWords(words, width); err != nil {
		return err
	}
	c.sigs = append(c.sigs, signature.Sig{Len: int(lv), H: words})
	return nil
}

// sigWords returns an nw-word slice for a signature body. With scratch
// enabled it is carved out of the arena; a grow leaves earlier slices of the
// same element pointing at the old backing array, which stays alive through
// their references.
func (c *Cursor) sigWords(nw int) []uint64 {
	if !c.reuse {
		return make([]uint64, nw)
	}
	n := len(c.arena)
	if cap(c.arena)-n < nw {
		grow := 2*cap(c.arena) + nw
		if grow < 64 {
			grow = 64
		}
		na := make([]uint64, n, grow)
		copy(na, c.arena)
		c.arena = na
	}
	c.arena = c.arena[:n+nw]
	return c.arena[n : n+nw]
}

func (c *Cursor) skipSig() error {
	lv, err := c.src.ReadBits(signature.LenBits)
	if err != nil {
		return err
	}
	return c.src.SkipBits(int64(c.lay.Codec.SigBits(int(lv))))
}
