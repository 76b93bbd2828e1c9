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

// flushThreshold is the pending-bit budget per attribute before a partial
// flush to the attribute's chain during Build.
const flushThreshold = 64 << 10 * 8 // 64 KiB in bits

// Build constructs an iVA-file over every record of tbl into f (whose
// previous contents are discarded). Records must be stored in increasing
// tid order, which the table guarantees for append-only and rebuilt files.
func Build(tbl *table.Table, f *storage.File, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	codec, err := signature.NewCodec(opts.N, opts.Alpha)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	segs := storage.NewSegStore(f, superblockSize)

	// Packed tid width: current id space plus headroom for future inserts.
	headroom := opts.TIDHeadroom
	if headroom <= 0 {
		headroom = tbl.Total() / 4
		if headroom < 1024 {
			headroom = 1024
		}
	}
	ltid := bitio.BitsFor(uint64(tbl.NextTID()) + uint64(headroom))
	if ltid > 32 {
		ltid = 32
	}

	ix := &Index{
		opts:    opts,
		f:       f,
		segs:    segs,
		codec:   codec,
		tbl:     tbl,
		ltid:    ltid,
		entries: make([]tupleEntry, 0, tbl.Total()),
	}
	// Arm checksum tracking before any chain is written; the full-map flag
	// makes Build's final Sync compute every covered segment's word.
	ix.initIntegrity(true)
	if ix.tupleChain, err = segs.Create(); err != nil {
		return nil, err
	}
	if ix.delChain, err = segs.Create(); err != nil {
		return nil, err
	}
	if ix.attrChain, err = segs.Create(); err != nil {
		return nil, err
	}
	if ix.attrChainB, err = segs.Create(); err != nil {
		return nil, err
	}
	// Build's final Sync is the file's first commit; start on slot B so it
	// targets slot A (see Sync's ping-pong rule).
	ix.attrSlot = 1
	if ix.ckptChain, err = segs.Create(); err != nil {
		return nil, err
	}
	ix.ckptEvery = opts.CheckpointEvery

	// Lay out one vector list per attribute.
	infos := tbl.Attrs()
	tupleEntries := tbl.Total()
	builders := make([]*listBuilder, len(infos))
	var sc sigScratch
	var positional []model.AttrID
	for id, info := range infos {
		attrCodec := codec
		alpha := opts.Alpha
		if o, ok := opts.AlphaOverride[model.AttrID(id)]; ok {
			if attrCodec, err = signature.NewCodec(opts.N, o); err != nil {
				return nil, fmt.Errorf("core: attribute %q: %w", info.Name, err)
			}
			alpha = o
		}
		layout, quant, err := chooseLayout(opts, attrCodec, info, ltid, tupleEntries)
		if err != nil {
			return nil, fmt.Errorf("core: attribute %q: %w", info.Name, err)
		}
		chain, err := segs.Create()
		if err != nil {
			return nil, err
		}
		st := attrState{layout: layout, chain: chain, alpha: alpha, quant: quant, exists: true}
		// Only tid-bearing organizations benefit from the packed codec's
		// delta transform; positional lists stay raw (codec 0) so their
		// absolute-seek reads keep costing nothing.
		if opts.Codec == int(vector.CodecPacked) &&
			(layout.Type == vector.TypeI || layout.Type == vector.TypeII) {
			st.codecID = vector.CodecPacked
		}
		ix.attrs = append(ix.attrs, st)
		b, err := newListBuilder(ix, model.AttrID(id), &sc)
		if err != nil {
			return nil, err
		}
		builders[id] = b
		if layout.Type == vector.TypeIII || layout.Type == vector.TypeIV {
			positional = append(positional, model.AttrID(id))
		}
	}

	// Single pass over the table, one walk per verified record: emit
	// tuple-list elements and vector-list elements in tuple order.
	var (
		tupleW  bitio.Writer
		fld     table.Field
		defined []model.AttrID // of the record being walked, ascending
	)
	lastTID := model.TID(0)
	first := true
	// Nobody appends to tbl while it is built, so every attribute a record
	// defines was registered before infos was taken: no field the walk yields
	// lacks a builder, and each comes with its catalog kind.
	err = tbl.ScanRecords(func(ptr int64, rec table.Walker) error {
		if err := rec.Err(); err != nil {
			return err
		}
		tid := rec.TID
		if !first && tid <= lastTID {
			return fmt.Errorf("core: table not in tid order (%d after %d)", tid, lastTID)
		}
		first, lastTID = false, tid
		if tid > ix.maxTID() {
			return fmt.Errorf("core: tid %d exceeds packed width %d bits", tid, ix.ltid)
		}
		if uint64(ptr) >= tombstonePtr {
			return fmt.Errorf("core: table offset %d exceeds %d ptr bits", ptr, ptrBits)
		}
		pos := int64(len(ix.entries))
		if pos%ix.ckptEvery == 0 {
			// Stripe boundary: packed lists seal the finished stripe into a
			// block container first (after which their buffers are empty and
			// bitLen covers the stripe), then each attribute's next element
			// header sits at its flushed length plus whatever the builder
			// still buffers.
			for _, b := range builders {
				if err := b.sealStripe(); err != nil {
					return err
				}
			}
			ix.recordCheckpoint(pos, ix.currentAttrOffsets(func(a int) int64 {
				return int64(builders[a].w.Len())
			}))
		}
		tupleW.WriteBits(uint64(tid), ix.ltid)
		tupleW.WriteBits(uint64(ptr), ptrBits)
		if tupleW.Len() >= flushThreshold {
			if err := ix.flushTupleList(&tupleW); err != nil {
				return err
			}
		}
		ix.entries = append(ix.entries, tupleEntry{tid: tid, ptr: ptr})

		// Defined attributes.
		defined = defined[:0]
		for rec.Next(&fld) {
			a := fld.Attr
			defined = append(defined, a)
			if err := builders[a].add(tid, &fld); err != nil {
				return err
			}
		}
		if err := rec.Err(); err != nil {
			return err
		}
		// Positional lists need explicit ndf elements for this tuple: those
		// of the (ascending) positional attributes the record skipped.
		i := 0
		for _, a := range positional {
			for i < len(defined) && defined[i] < a {
				i++
			}
			if i < len(defined) && defined[i] == a {
				continue
			}
			if err := builders[a].addNDF(tid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ix.flushTupleList(&tupleW); err != nil {
		return nil, err
	}
	for _, b := range builders {
		if err := b.flush(); err != nil {
			return nil, err
		}
	}
	// The two checksum-map slots Sync ping-pongs between.
	if ix.crcChainA, err = segs.Create(); err != nil {
		return nil, err
	}
	if ix.crcChainB, err = segs.Create(); err != nil {
		return nil, err
	}
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return ix, nil
}

func (ix *Index) flushTupleList(w *bitio.Writer) error {
	if w.Len() == 0 {
		return nil
	}
	n, err := storage.AppendBits(ix.segs, ix.tupleChain, ix.tupleBits, w.Bytes(), w.Len())
	if err != nil {
		return err
	}
	ix.tupleBits = n
	w.Reset()
	return nil
}

// listBuilder accumulates one attribute's vector list during Build and
// flushes it to the attribute's chain in batches.
type listBuilder struct {
	ix   *Index
	attr model.AttrID
	enc  *vector.Encoder
	w    bitio.Writer
	sc   *sigScratch
}

// sigScratch holds the signatures of the text value being added and their cH
// words. One is shared by all the builders of a Build, which adds one value
// at a time.
type sigScratch struct {
	sigs  []signature.Sig
	words []uint64
}

func newListBuilder(ix *Index, attr model.AttrID, sc *sigScratch) (*listBuilder, error) {
	enc, err := vector.NewEncoder(ix.attrs[attr].layout)
	if err != nil {
		return nil, err
	}
	return &listBuilder{ix: ix, attr: attr, enc: enc, sc: sc}, nil
}

// add appends the element(s) for one defined value, read from its record.
func (b *listBuilder) add(tid model.TID, f *table.Field) error {
	st := &b.ix.attrs[b.attr]
	var err error
	switch f.Kind {
	case model.KindText:
		sc := b.sc
		sc.sigs = sc.sigs[:0]
		used := 0
		for rest := f.Strs; len(rest) > 0; {
			var s []byte
			s, rest = table.CutString(rest)
			sig := st.layout.Codec.EncodeBytes(sc.words[min(used, len(sc.words)):], s)
			used += len(sig.H)
			sc.sigs = append(sc.sigs, sig)
		}
		err = b.enc.EncodeText(&b.w, tid, sc.sigs)
		if used > len(sc.words) { // some signature had to allocate: make room for the next value this wide
			sc.words = make([]uint64, 2*used)
		}
	case model.KindNumeric:
		err = b.enc.EncodeNumeric(&b.w, tid, st.quant.Encode(f.Num), false)
	}
	if err != nil {
		return err
	}
	return b.maybeFlush()
}

// addNDF appends an explicit ndf element (positional lists only).
func (b *listBuilder) addNDF(tid model.TID) error {
	if err := encodeElement(&b.ix.attrs[b.attr], &b.w, tid, model.Value{}, true); err != nil {
		return err
	}
	return b.maybeFlush()
}

func (b *listBuilder) maybeFlush() error {
	// Packed lists must buffer whole stripes: sealStripe flushes them at
	// each checkpoint boundary instead of at a byte budget.
	if b.ix.attrs[b.attr].codecID != vector.CodecRaw {
		return nil
	}
	if b.w.Len() < flushThreshold {
		return nil
	}
	return b.flush()
}

func (b *listBuilder) flush() error {
	st := &b.ix.attrs[b.attr]
	if st.codecID != vector.CodecRaw {
		// The final partial stripe seals like a full one, so a fresh build
		// leaves no raw tail at all.
		return b.sealStripe()
	}
	if b.w.Len() == 0 {
		return nil
	}
	n, err := storage.AppendBits(b.ix.segs, st.chain, st.bitLen, b.w.Bytes(), b.w.Len())
	if err != nil {
		return err
	}
	st.bitLen = n
	b.w.Reset()
	return nil
}

// sealStripe transcodes the buffered stripe of a packed attribute into one
// self-describing block container and appends it word-aligned behind the
// coded region. No-op for codec-0 attributes and empty buffers. During
// Build the tail is always empty, so physBits() is exactly codedWords*64
// and blocks stay word-aligned in the physical stream.
func (b *listBuilder) sealStripe() error {
	st := &b.ix.attrs[b.attr]
	if st.codecID == vector.CodecRaw || b.w.Len() == 0 {
		return nil
	}
	cdc, ok := vector.CodecByID(st.codecID)
	if !ok {
		return fmt.Errorf("core: attr %d: unknown codec %d", b.attr, st.codecID)
	}
	words, err := cdc.Seal(st.layout, b.w.Bytes(), int64(b.w.Len()))
	if err != nil {
		return err
	}
	var pw bitio.Writer
	for _, x := range words {
		pw.WriteBits(x, 64)
	}
	if _, err := storage.AppendBits(b.ix.segs, st.chain, st.physBits(), pw.Bytes(), pw.Len()); err != nil {
		return err
	}
	st.dir = append(st.dir, vector.BlockMeta{
		PhysWord: st.codedWords, LogicalStart: st.codedLogical, LogicalBits: int64(b.w.Len()),
	})
	st.codedWords += int64(len(words))
	st.codedLogical += int64(b.w.Len())
	st.bitLen += int64(b.w.Len())
	b.w.Reset()
	return nil
}
