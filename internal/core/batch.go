package core

import (
	"fmt"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/vector"
)

// InsertBatch inserts several tuples in one critical section, appending to
// each affected vector list once instead of once per tuple — the bulk-feed
// ingestion path of a community system. Tuples receive consecutive ids,
// returned in order. On ErrNeedsRebuild nothing has been inserted.
func (ix *Index) InsertBatch(batch []map[model.AttrID]model.Value) ([]model.TID, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	firstTID := ix.tbl.NextTID()
	lastTID := firstTID + model.TID(len(batch)) - 1
	if lastTID > ix.maxTID() || lastTID < firstTID {
		return nil, ErrNeedsRebuild
	}
	if n := ix.tbl.Catalog().NumAttrs(); n > len(ix.attrs) {
		if err := ix.growAttrs(n); err != nil {
			return nil, err
		}
	}

	// Encode everything per attribute before mutating any state.
	writers := make(map[model.AttrID]*bitio.Writer)
	var positional []model.AttrID
	for id := range ix.attrs {
		t := ix.attrs[id].layout.Type
		if t == vector.TypeIII || t == vector.TypeIV {
			positional = append(positional, model.AttrID(id))
		}
	}
	encodeOne := func(tid model.TID, a model.AttrID, v model.Value, ndf bool) error {
		w, ok := writers[a]
		if !ok {
			w = &bitio.Writer{}
			writers[a] = w
		}
		return encodeElement(&ix.attrs[a], w, tid, v, ndf)
	}
	// Stripe boundaries crossed by the batch: snapshot resume offsets while
	// encoding, since each attribute's offset at a boundary is its committed
	// length plus the bits encoded for earlier tuples of this batch.
	startPos := int64(len(ix.entries))
	type ckptSnap struct {
		pos  int64
		offs []int64
	}
	var snaps []ckptSnap
	for i, values := range batch {
		if len(values) == 0 {
			return nil, fmt.Errorf("core: empty tuple at batch index %d", i)
		}
		if pos := startPos + int64(i); pos%ix.ckptEvery == 0 && ix.checkpointsEnabled() {
			snaps = append(snaps, ckptSnap{pos, ix.currentAttrOffsets(func(a int) int64 {
				if w, ok := writers[model.AttrID(a)]; ok {
					return int64(w.Len())
				}
				return 0
			})})
		}
		tid := firstTID + model.TID(i)
		for a, v := range values {
			if int(a) >= len(ix.attrs) {
				return nil, fmt.Errorf("core: value on unregistered attribute %d", a)
			}
			if ix.attrs[a].layout.Kind != v.Kind {
				return nil, fmt.Errorf("core: attribute %d is %v, value is %v",
					a, ix.attrs[a].layout.Kind, v.Kind)
			}
			if err := encodeOne(tid, a, v, false); err != nil {
				return nil, err
			}
		}
		for _, a := range positional {
			if _, ok := values[a]; ok {
				continue
			}
			if err := encodeOne(tid, a, model.Value{}, true); err != nil {
				return nil, err
			}
		}
	}

	// Commit: table records first, then the index tails, each once.
	tids := make([]model.TID, len(batch))
	var tw bitio.Writer
	type entryAdd struct {
		tid model.TID
		ptr int64
	}
	adds := make([]entryAdd, 0, len(batch))
	for i, values := range batch {
		tid := firstTID + model.TID(i)
		gotTID, ptr, err := ix.tbl.Append(values)
		if err != nil {
			return nil, err
		}
		if gotTID != tid {
			return nil, fmt.Errorf("core: tid raced in batch: %d vs %d", tid, gotTID)
		}
		if uint64(ptr) >= tombstonePtr {
			return nil, ErrNeedsRebuild
		}
		tw.WriteBits(uint64(tid), ix.ltid)
		tw.WriteBits(uint64(ptr), ptrBits)
		adds = append(adds, entryAdd{tid, ptr})
		tids[i] = tid
	}
	var err error
	if ix.tupleBits, err = storage.AppendBits(ix.segs, ix.tupleChain, ix.tupleBits, tw.Bytes(), tw.Len()); err != nil {
		return nil, err
	}
	for i, a := range adds {
		ix.entries = append(ix.entries, tupleEntry{tid: a.tid, ptr: a.ptr})
		ix.posByTID[a.tid] = startPos + int64(i)
		ix.zoneObserve(batch[i])
	}
	for a, w := range writers {
		if w.Len() == 0 {
			continue
		}
		if err := ix.appendList(&ix.attrs[a], w.Bytes(), w.Len()); err != nil {
			return nil, err
		}
	}
	for _, s := range snaps {
		ix.recordCheckpoint(s.pos, s.offs)
	}
	return tids, nil
}
