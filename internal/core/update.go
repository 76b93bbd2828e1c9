package core

import (
	"encoding/binary"
	"fmt"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/vector"
)

// Insert adds a tuple to the table and the index (§IV-B) and returns its id:
// an appendRun of one.
func (ix *Index) Insert(values map[model.AttrID]model.Value) (model.TID, error) {
	return ix.appendRun([]map[model.AttrID]model.Value{values}, 0, false)
}

// InsertBatch inserts several tuples in one critical section, appending to
// each affected vector list once instead of once per tuple — the bulk-feed
// ingestion path of a community system. Tuples receive consecutive ids,
// returned in order.
func (ix *Index) InsertBatch(batch []map[model.AttrID]model.Value) ([]model.TID, error) {
	first, err := ix.appendRun(batch, 0, false)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	tids := make([]model.TID, len(batch))
	for i := range tids {
		tids[i] = first + model.TID(i)
	}
	return tids, nil
}

// Replace is §IV-B's update — a deletion plus an insertion under a fresh tid,
// which is returned — as one step: the new tuple is appended and old
// deleted, or, on any error, neither.
func (ix *Index) Replace(old model.TID, values map[model.AttrID]model.Value) (model.TID, error) {
	return ix.appendRun([]map[model.AttrID]model.Value{values}, old, true)
}

// runScratch is what appendRun encodes into, kept from run to run (under
// ix.mu) so that a run of one allocates no writer.
type runScratch struct {
	tuple      bitio.Writer   // the run's tuple-list elements
	lists      []bitio.Writer // by attribute id: the elements the run adds to that list
	positional []model.AttrID // attributes whose list takes an element for every tuple
}

// appendRun is the one insertion routine (§IV-B): a run of tuples gets
// consecutive ids from the one returned, a record each at the tail of the
// table file, an element each at the tail of the tuple list, and elements at
// the tail of every vector list they touch — attributes registered in the
// catalog after the last build get fresh Type I lists first. With replacing
// set, the live tuple old is deleted in the same step.
//
// Everything is validated and encoded before the first write, and nothing is
// committed before the last: the writes land behind the committed ends of the
// table and the lists — the table's first, then the tuple list's, then the
// vector lists' in ascending attribute id, then the deletion list's — and only when
// all succeeded do those ends, the in-memory mirror, the checkpoints of the
// stripe boundaries the run crosses and the catalog statistics move. On any
// error return — ErrNeedsRebuild when a packed field (tid, ptr or string
// count) cannot represent a new element, ErrNotFound for a replaced tid that
// is not live, a device error — no tuple has been inserted or deleted; the
// next run overwrites what a failed one wrote.
func (ix *Index) appendRun(batch []map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	var oldPos int64
	var oldTuple *model.Tuple
	if replacing {
		var err error
		if oldPos, oldTuple, err = ix.fetchLive(old); err != nil {
			return 0, err
		}
	}
	first := ix.tbl.NextTID()
	if last := first + model.TID(len(batch)) - 1; last > ix.maxTID() || last < first {
		return 0, ErrNeedsRebuild
	}
	if n := ix.tbl.Catalog().NumAttrs(); n > len(ix.attrs) {
		if err := ix.growAttrs(n); err != nil {
			return 0, err
		}
	}
	run, err := ix.tbl.EncodeRun(first, batch)
	if err != nil {
		return 0, err
	}
	if uint64(run.Ptrs[len(batch)-1]) >= tombstonePtr {
		return 0, ErrNeedsRebuild
	}

	// Encode per attribute. Positional lists take an element for every tuple,
	// defined or not.
	sc := &ix.run
	sc.tuple.Reset()
	sc.positional = sc.positional[:0]
	for len(sc.lists) < len(ix.attrs) {
		sc.lists = append(sc.lists, bitio.Writer{})
	}
	for a := range ix.attrs {
		sc.lists[a].Reset()
		if t := ix.attrs[a].layout.Type; t == vector.TypeIII || t == vector.TypeIV {
			sc.positional = append(sc.positional, model.AttrID(a))
		}
	}
	startPos := int64(len(ix.entries))
	type boundary struct {
		pos  int64
		offs []int64
	}
	var crossed []boundary
	for i, values := range batch {
		if pos := startPos + int64(i); pos%ix.ckptEvery == 0 && ix.checkpointsEnabled() {
			// Stripe boundary at this tuple: each list's resume offset is its
			// committed length plus what the run's earlier tuples add to it.
			crossed = append(crossed, boundary{pos, ix.currentAttrOffsets(func(a int) int64 {
				return int64(sc.lists[a].Len())
			})})
		}
		tid := first + model.TID(i)
		sc.tuple.WriteBits(uint64(tid), ix.ltid)
		sc.tuple.WriteBits(uint64(run.Ptrs[i]), ptrBits)
		for a, v := range values {
			if int(a) >= len(ix.attrs) {
				return 0, fmt.Errorf("core: value on unregistered attribute %d", a)
			}
			if ix.attrs[a].layout.Kind != v.Kind {
				return 0, fmt.Errorf("core: attribute %d is %v, value is %v", a, ix.attrs[a].layout.Kind, v.Kind)
			}
			if err := encodeElement(&ix.attrs[a], &sc.lists[a], tid, v, false); err != nil {
				return 0, err
			}
		}
		for _, a := range sc.positional {
			if _, defined := values[a]; defined {
				continue
			}
			if err := encodeElement(&ix.attrs[a], &sc.lists[a], tid, model.Value{}, true); err != nil {
				return 0, err
			}
		}
	}

	// Write, behind the committed ends.
	if err := ix.tbl.AppendRun(run); err != nil {
		return 0, err
	}
	tupleBits, err := storage.AppendBits(ix.segs, ix.tupleChain, ix.tupleBits, sc.tuple.Bytes(), sc.tuple.Len())
	if err != nil {
		return 0, err
	}
	for a := range ix.attrs {
		// Under codec 0 a list's physical and logical tails coincide; under
		// codec 1 the raw tail starts word-aligned behind the sealed blocks.
		w := &sc.lists[a]
		if _, err := storage.AppendBits(ix.segs, ix.attrs[a].chain, ix.attrs[a].physBits(), w.Bytes(), w.Len()); err != nil {
			return 0, err
		}
	}
	if replacing {
		if err := ix.appendDeletion(oldPos); err != nil {
			return 0, err
		}
	}

	// Commit: nothing below can fail.
	ix.tbl.CommitRun(run)
	ix.tupleBits = tupleBits
	for i := range batch {
		ix.entries = append(ix.entries, tupleEntry{tid: first + model.TID(i), ptr: run.Ptrs[i]})
	}
	for a := range ix.attrs {
		ix.attrs[a].bitLen += int64(sc.lists[a].Len())
	}
	for _, b := range crossed {
		ix.recordCheckpoint(b.pos, b.offs)
	}
	if replacing {
		ix.dropEntry(oldPos, oldTuple)
	}
	return first, nil
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
		layout, quant, err := chooseLayout(forced, codec, info, ix.ltid, int64(len(ix.entries)))
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

// Delete deletes a tuple: its tuple-list position is appended to the deletion
// list, the catalog statistics shed its values, and the record stays in the
// table file until the next rebuild (§IV-B).
func (ix *Index) Delete(tid model.TID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	pos, tp, err := ix.fetchLive(tid)
	if err != nil {
		return err
	}
	if err := ix.appendDeletion(pos); err != nil {
		return err
	}
	ix.dropEntry(pos, tp)
	return nil
}

// appendDeletion writes tuple-list position pos behind the deletion list's
// committed end; dropEntry commits it. Caller holds ix.mu.
func (ix *Index) appendDeletion(pos int64) error {
	var b [8]byte // MSB-first, as AppendBits reads its source
	binary.BigEndian.PutUint64(b[:], uint64(pos)<<(64-ix.ltid))
	_, err := storage.AppendBits(ix.segs, ix.delChain, ix.deleted*int64(ix.ltid), b[:], ix.ltid)
	return err
}

// fetchLive reads the live tuple tid, whose values a deletion takes out of the
// catalog statistics, and its tuple-list position. Caller holds ix.mu.
func (ix *Index) fetchLive(tid model.TID) (int64, *model.Tuple, error) {
	pos, ok := ix.find(tid)
	if !ok {
		return 0, nil, ErrNotFound
	}
	tp, err := ix.tbl.Fetch(ix.entries[pos].ptr)
	return pos, tp, err
}

// dropEntry is the in-memory half of a deletion, once the deletion list holds
// pos.
func (ix *Index) dropEntry(pos int64, tp *model.Tuple) {
	ix.tbl.NoteDelete(tp.Values)
	ix.entries[pos].deleted = true
	ix.deleted++
}

// Fetch returns a live tuple by id (one random table access).
func (ix *Index) Fetch(tid model.TID) (*model.Tuple, error) {
	ix.mu.RLock()
	pos, ok := ix.find(tid)
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
