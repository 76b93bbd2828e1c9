package core

import (
	"fmt"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vector"
)

// Insert adds a tuple to the table and appends the corresponding elements to
// the tail of the tuple list and of every affected vector list (§IV-B).
// Attributes registered in the catalog after the last build get fresh Type I
// lists lazily. ErrNeedsRebuild is returned — before any state changes —
// when a packed field can no longer represent the new element.
func (ix *Index) Insert(values map[model.AttrID]model.Value) (model.TID, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	tid := ix.tbl.NextTID()
	if tid > ix.maxTID() {
		return 0, ErrNeedsRebuild
	}
	// Grow the attribute-state table for catalog attributes added after the
	// last build.
	if n := ix.tbl.Catalog().NumAttrs(); n > len(ix.attrs) {
		if err := ix.growAttrs(n); err != nil {
			return 0, err
		}
	}
	// Pre-encode everything so nothing is mutated on overflow. Positional
	// lists need elements even for undefined attributes.
	type pendingWrite struct {
		attr model.AttrID
		w    *bitio.Writer
	}
	var writes []pendingWrite
	touched := make(map[model.AttrID]bool, len(values))
	encodeFor := func(a model.AttrID, v model.Value, ndf bool) error {
		w := &bitio.Writer{}
		if err := encodeElement(&ix.attrs[a], w, tid, v, ndf); err != nil {
			return err
		}
		writes = append(writes, pendingWrite{a, w})
		return nil
	}
	for a, v := range values {
		if int(a) >= len(ix.attrs) {
			return 0, fmt.Errorf("core: value on unregistered attribute %d", a)
		}
		if ix.attrs[a].layout.Kind != v.Kind {
			return 0, fmt.Errorf("core: attribute %d is %v, value is %v", a, ix.attrs[a].layout.Kind, v.Kind)
		}
		if err := encodeFor(a, v, false); err != nil {
			return 0, err
		}
		touched[a] = true
	}
	for id := range ix.attrs {
		a := model.AttrID(id)
		if touched[a] {
			continue
		}
		t := ix.attrs[a].layout.Type
		if t == vector.TypeIII || t == vector.TypeIV {
			if err := encodeFor(a, model.Value{}, true); err != nil {
				return 0, err
			}
		}
	}

	// Commit: table record first, then the index tails.
	gotTID, ptr, err := ix.tbl.Append(values)
	if err != nil {
		return 0, err
	}
	if gotTID != tid {
		return 0, fmt.Errorf("core: tid raced: expected %d, table assigned %d", tid, gotTID)
	}
	if uint64(ptr) >= tombstonePtr {
		return 0, ErrNeedsRebuild
	}
	var tw bitio.Writer
	tw.WriteBits(uint64(tid), ix.ltid)
	tw.WriteBits(uint64(ptr), ptrBits)
	if ix.tupleBits, err = storage.AppendBits(ix.segs, ix.tupleChain, ix.tupleBits, tw.Bytes(), tw.Len()); err != nil {
		return 0, err
	}
	pos := int64(len(ix.entries))
	if pos%ix.ckptEvery == 0 {
		// Stripe boundary at this tuple: the vector-list tails, captured
		// before this tuple's elements land, are the resume offsets.
		ix.recordCheckpoint(pos, ix.currentAttrOffsets(nil))
	}
	ix.entries = append(ix.entries, tupleEntry{tid: tid, ptr: ptr})
	ix.posByTID[tid] = pos
	ix.zoneObserve(values)
	for _, pw := range writes {
		if err := ix.appendList(&ix.attrs[pw.attr], pw.w.Bytes(), pw.w.Len()); err != nil {
			return 0, err
		}
	}
	return tid, nil
}

// encodeElement appends to w what the list of st holds for tuple tid: the
// element(s) of its value v, or — ndf, which only positional lists ask for —
// the explicit undefined element. It returns ErrNeedsRebuild when the list
// cannot take the element as it is laid out.
func encodeElement(st *attrState, w *bitio.Writer, tid model.TID, v model.Value, ndf bool) error {
	if st.dirBroken {
		// A packed list whose block directory was dropped at open has no
		// known tail position; appending would corrupt it further. The
		// rebuild path recreates the list from the table.
		return ErrNeedsRebuild
	}
	if err := st.layout.Validate(); err != nil {
		return err
	}
	enc := vector.Encoder{L: st.layout}
	var err error
	switch {
	case st.layout.Kind == model.KindNumeric:
		var code uint64
		if !ndf {
			code = st.quant.Encode(v.Num)
		}
		err = enc.EncodeNumeric(w, tid, code, ndf)
	case ndf:
		err = enc.EncodeText(w, tid, nil)
	default:
		sigs := make([]signature.Sig, len(v.Strs))
		for i, s := range v.Strs {
			sigs[i] = st.layout.Codec.Encode(s)
		}
		err = enc.EncodeText(w, tid, sigs)
	}
	if err == vector.ErrWidthOverflow {
		return ErrNeedsRebuild
	}
	return err
}

// appendList appends nbits of encoded elements at an attribute's physical
// tail and advances its logical length. Under codec 0 the two coincide;
// under codec 1 the raw tail starts word-aligned behind the sealed blocks.
func (ix *Index) appendList(st *attrState, src []byte, nbits int) error {
	if _, err := storage.AppendBits(ix.segs, st.chain, st.physBits(), src, nbits); err != nil {
		return err
	}
	st.bitLen += int64(nbits)
	return nil
}

// growAttrs creates lazy Type I lists for newly registered attributes.
func (ix *Index) growAttrs(n int) error {
	for id := len(ix.attrs); id < n; id++ {
		info, err := ix.tbl.Catalog().Info(model.AttrID(id))
		if err != nil {
			return err
		}
		// A post-build attribute starts empty: sparse Type I is optimal and
		// stays legal for both kinds.
		forced := ix.opts
		forced.ForceType = vector.TypeI
		alpha := ix.opts.Alpha
		if o, ok := ix.opts.AlphaOverride[model.AttrID(id)]; ok {
			alpha = o
		}
		codec, err := ix.codecFor(alpha)
		if err != nil {
			return err
		}
		layout, quant, err := chooseLayout(forced, codec, table.AttrInfo{
			Name: info.Name, Kind: info.Kind,
			HasDomain: info.HasDomain, Min: info.Min, Max: info.Max,
			MaxStrs: info.MaxStrs,
		}, ix.ltid, int64(len(ix.entries)))
		if err != nil {
			return err
		}
		chain, err := ix.segs.Create()
		if err != nil {
			return err
		}
		ix.attrs = append(ix.attrs, attrState{layout: layout, chain: chain, alpha: alpha, quant: quant, exists: true})
	}
	return nil
}

// Delete tombstones a tuple: its tuple-list ptr is overwritten with the
// all-ones marker, the catalog statistics shed its values, and the record
// stays in the table file until the next rebuild (§IV-B).
func (ix *Index) Delete(tid model.TID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pos, ok := ix.posByTID[tid]
	if !ok {
		return ErrNotFound
	}
	tp, err := ix.tbl.Fetch(ix.entries[pos].ptr)
	if err != nil {
		return err
	}
	bitOff := pos*int64(ix.elemBits()) + int64(ix.ltid)
	if err := storage.WriteBitsAt(ix.segs, ix.tupleChain, bitOff, tombstonePtr, ptrBits); err != nil {
		return err
	}
	// The tombstone mutates committed bytes in place, so the committed
	// checksum map must be written through (see crcRepairRange).
	if err := ix.crcRepairRange(ix.tupleChain, bitOff, ptrBits); err != nil {
		return err
	}
	if err := ix.tbl.NoteDelete(tp.Values); err != nil {
		return err
	}
	ix.entries[pos].deleted = true
	ix.zoneNoteDelete(pos)
	delete(ix.posByTID, tid)
	ix.deleted++
	return nil
}

// Update replaces a tuple: §IV-B breaks it into a deletion and an insertion
// under a fresh tid, which is returned.
func (ix *Index) Update(tid model.TID, values map[model.AttrID]model.Value) (model.TID, error) {
	if err := ix.Delete(tid); err != nil {
		return 0, err
	}
	return ix.Insert(values)
}

// Fetch returns a live tuple by id (one random table access).
func (ix *Index) Fetch(tid model.TID) (*model.Tuple, error) {
	ix.mu.RLock()
	pos, ok := ix.posByTID[tid]
	var ptr int64
	if ok {
		ptr = ix.entries[pos].ptr
	}
	ix.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return ix.tbl.Fetch(ptr)
}
