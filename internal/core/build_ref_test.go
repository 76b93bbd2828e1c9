package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vector"
)

// referenceBuild is Build as it was before it streamed record bytes, kept
// verbatim as the reference of TestBuildStreamMatchesReference: every record
// is decoded into a map-backed tuple (table.Scan), signatures are encoded
// from its strings one slice per value, and explicit ndf elements come from a
// map lookup per positional list.
// Only the statistics source (tbl.Attrs), the name of the element encoder
// (referenceAdd, the old listBuilder.add) and the builders' unused scratch
// argument differ from the parent's text.
func referenceBuild(tbl *table.Table, f *storage.File, opts Options) (*Index, error) {
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
		opts:  opts,
		f:     f,
		segs:  segs,
		codec: codec,
		tbl:   tbl,
		ltid:  ltid,
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
		b, err := newListBuilder(ix, model.AttrID(id), nil)
		if err != nil {
			return nil, err
		}
		builders[id] = b
		if layout.Type == vector.TypeIII || layout.Type == vector.TypeIV {
			positional = append(positional, model.AttrID(id))
		}
	}

	// Single pass over the table: emit tuple-list elements and vector-list
	// elements in tuple order.
	var tupleW bitio.Writer
	lastTID := model.TID(0)
	first := true
	err = tbl.Scan(func(ptr int64, tp *model.Tuple) error {
		if !first && tp.TID <= lastTID {
			return fmt.Errorf("core: table not in tid order (%d after %d)", tp.TID, lastTID)
		}
		first, lastTID = false, tp.TID
		if tp.TID > ix.maxTID() {
			return fmt.Errorf("core: tid %d exceeds packed width %d bits", tp.TID, ix.ltid)
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
		tupleW.WriteBits(uint64(tp.TID), ix.ltid)
		tupleW.WriteBits(uint64(ptr), ptrBits)
		if tupleW.Len() >= flushThreshold {
			if err := ix.flushTupleList(&tupleW); err != nil {
				return err
			}
		}
		ix.entries = append(ix.entries, tupleEntry{tid: tp.TID, ptr: ptr})

		// Defined attributes.
		for _, a := range tp.Attrs() {
			if err := referenceAdd(builders[a], tp.TID, tp.Values[a]); err != nil {
				return err
			}
		}
		// Positional lists need explicit ndf elements for this tuple.
		for _, a := range positional {
			if _, ok := tp.Values[a]; ok {
				continue
			}
			if err := builders[a].addNDF(tp.TID); err != nil {
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

// referenceAdd is the parent's listBuilder.add: the element(s) of one decoded
// value.
func referenceAdd(b *listBuilder, tid model.TID, v model.Value) error {
	st := &b.ix.attrs[b.attr]
	switch st.layout.Kind {
	case model.KindText:
		sigs := make([]signature.Sig, len(v.Strs))
		for i, s := range v.Strs {
			sigs[i] = st.layout.Codec.Encode(s)
		}
		if err := b.enc.EncodeText(&b.w, tid, sigs); err != nil {
			return err
		}
	case model.KindNumeric:
		if err := b.enc.EncodeNumeric(&b.w, tid, st.quant.Encode(v.Num), false); err != nil {
			return err
		}
	}
	return b.maybeFlush()
}

// referenceCompact is table compaction as the parent did it, through the
// table's exported API: every record decoded, the survivors re-encoded and
// appended to a table over its own catalog (whose statistics those appends
// count). The byte-level comparison of table.Rebuild with this — including a
// dead tail — lives in the table package; here it supplies the reference
// pipeline's input.
func referenceCompact(t *testing.T, src *table.Table, dst *storage.File, keep func(model.TID) bool) *table.Table {
	t.Helper()
	cat := table.NewCatalog()
	for _, info := range src.Catalog().Attrs() {
		if _, err := cat.AddAttr(info.Name, info.Kind); err != nil {
			t.Fatal(err)
		}
	}
	nt, err := table.New(dst, cat)
	if err != nil {
		t.Fatal(err)
	}
	err = src.Scan(func(_ int64, tp *model.Tuple) error {
		if !keep(tp.TID) {
			return nil
		}
		_, err := nt.AppendWithTID(tp.TID, tp.Values)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Sync(); err != nil {
		t.Fatal(err)
	}
	return nt
}

// streamFixture fills a table whose attributes cover the four list types'
// habitats: a dense text and a dense numeric attribute (positional lists), a
// multi-string attribute, sparse ones of both kinds, and — with long — two
// attributes of 255-byte strings heavy enough to flush a list buffer several
// times in one build. A third of the tuples are tombstoned; the last is not.
func streamFixture(t *testing.T, pool *storage.Pool, tuples int, long bool, seed int64) (*table.Table, func(model.TID) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := table.NewCatalog()
	tbl, err := table.New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		t.Fatal(err)
	}
	attr := func(name string, kind model.Kind) model.AttrID {
		id, err := cat.AddAttr(name, kind)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	denseText, denseNum := attr("title", model.KindText), attr("price", model.KindNumeric)
	multi := attr("tags", model.KindText)
	var sparse []model.AttrID
	for i := 0; i < 10; i++ {
		kind := model.KindText
		if i%3 == 0 {
			kind = model.KindNumeric
		}
		sparse = append(sparse, attr(fmt.Sprintf("sparse%d", i), kind))
	}
	longA, longB := attr("essay", model.KindText), attr("abstract", model.KindText)
	attr("never-defined", model.KindText)
	word := func() string { return words[rng.Intn(len(words))] }
	dead := map[model.TID]bool{}
	for i := 0; i < tuples; i++ {
		vals := map[model.AttrID]model.Value{}
		if rng.Intn(20) != 0 {
			vals[denseText] = model.Text(word())
		}
		if rng.Intn(20) != 0 {
			vals[denseNum] = model.Num(float64(rng.Intn(5000)) / 7)
		}
		if rng.Intn(2) == 0 {
			strs := make([]string, 1+rng.Intn(5))
			for k := range strs {
				strs[k] = word()
			}
			vals[multi] = model.Text(strs...)
		}
		for j := 0; j < rng.Intn(4); j++ {
			a := sparse[rng.Intn(len(sparse))]
			if info, _ := cat.Info(a); info.Kind == model.KindNumeric {
				vals[a] = model.Num(rng.NormFloat64() * 100)
			} else {
				vals[a] = model.Text(word(), strings.Repeat("z", 255))
			}
		}
		if long {
			vals[longA] = model.Text(strings.Repeat(word(), 100)[:255])
			if rng.Intn(3) == 0 {
				vals[longB] = model.Text(strings.Repeat(word(), 100)[:255], word())
			}
		}
		if len(vals) == 0 {
			vals[denseNum] = model.Num(1)
		}
		tid, _, err := tbl.Append(vals)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 && i < tuples-1 {
			dead[tid] = true
			tbl.NoteDelete(vals)
		}
	}
	return tbl, func(tid model.TID) bool { return !dead[tid] }
}

func imageOf(t *testing.T, dev storage.Device) []byte {
	t.Helper()
	b := make([]byte, dev.Size())
	if _, err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildStreamMatchesReference is the differential of the build path:
// compacting a table by copying record bytes and building its index by
// walking them yields, byte for byte, the table and index files of the
// parent's decode-and-re-encode compaction and tuple-materialising builder —
// across the size-chosen and each forced list type, both codecs, multi-string
// and 255-byte values, tombstoned records, an α override, and tables of
// several stripes and several list-buffer flushes.
func TestBuildStreamMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		tuples int
		long   bool
	}{
		{"chosen", Options{CheckpointEvery: 64}, 700, false},
		{"type-I", Options{ForceType: vector.TypeI, CheckpointEvery: 64}, 300, false},
		{"type-II", Options{ForceType: vector.TypeII, CheckpointEvery: 64}, 300, false},
		{"type-III", Options{ForceType: vector.TypeIII, CheckpointEvery: 64}, 300, false},
		{"type-IV", Options{ForceType: vector.TypeIV, CheckpointEvery: 64}, 300, false},
		{"packed", Options{Codec: int(vector.CodecPacked), CheckpointEvery: 64}, 700, false},
		{"packed-type-I", Options{Codec: int(vector.CodecPacked), ForceType: vector.TypeI, CheckpointEvery: 32}, 300, false},
		{"alpha-override", Options{AlphaOverride: map[model.AttrID]float64{0: 0.6, 2: 0.05}, N: 3, CheckpointEvery: 64}, 300, false},
		{"one-stripe", Options{}, 300, false},
		{"flushes", Options{CheckpointEvery: 512}, 2600, true},
		{"packed-flushes", Options{Codec: int(vector.CodecPacked), CheckpointEvery: 512}, 2600, true},
	}
	typesSeen := map[vector.ListType]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := storage.NewPool(0, 32<<20)
			src, keep := streamFixture(t, pool, tc.tuples, tc.long, int64(len(tc.name)))

			gotTblDev, gotIdxDev := storage.NewMemDevice(), storage.NewMemDevice()
			gotTbl, err := src.Rebuild(storage.NewFile(pool, gotTblDev), keep)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(gotTbl, storage.NewFile(pool, gotIdxDev), tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			wantTblDev, wantIdxDev := storage.NewMemDevice(), storage.NewMemDevice()
			wantTbl := referenceCompact(t, src, storage.NewFile(pool, wantTblDev), keep)
			want, err := referenceBuild(wantTbl, storage.NewFile(pool, wantIdxDev), tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			if g, w := imageOf(t, gotTblDev), imageOf(t, wantTblDev); !bytes.Equal(g, w) {
				t.Fatalf("table files differ (%d vs %d bytes)", len(g), len(w))
			}
			if g, w := imageOf(t, gotIdxDev), imageOf(t, wantIdxDev); !bytes.Equal(g, w) {
				t.Fatalf("index files differ (%d vs %d bytes)", len(g), len(w))
			}
			if got.SizeBytes() != want.SizeBytes() || got.Entries() != want.Entries() {
				t.Fatalf("index shape: %d bytes %d entries, reference %d %d", got.SizeBytes(), got.Entries(), want.SizeBytes(), want.Entries())
			}
			if g, w := fmt.Sprint(gotTbl.Attrs()), fmt.Sprint(wantTbl.Attrs()); g != w {
				t.Fatalf("statistics differ:\n got %s\nwant %s", g, w)
			}
			flushed := false
			for _, r := range got.Attrs() {
				typesSeen[r.ListType] = true
				flushed = flushed || r.BitLen > flushThreshold
			}
			if tc.long && !flushed {
				t.Fatal("no list outgrew the flush threshold: the case does not cover mid-build flushes")
			}
			if stripes := got.Entries() / got.ckptEvery; tc.opts.CheckpointEvery > 0 && stripes < 2 {
				t.Fatalf("%d entries make %d stripes", got.Entries(), stripes)
			}
			rep, err := got.Check()
			if err != nil || !rep.Ok() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
		})
	}
	for _, typ := range []vector.ListType{vector.TypeI, vector.TypeII, vector.TypeIII, vector.TypeIV} {
		if !typesSeen[typ] {
			t.Errorf("no case built a Type %v list", typ)
		}
	}
}

// rawTable writes a table file holding one record per body given (tids and
// attribute entries as the caller encoded them) and opens it: the way to put
// records in front of Build that table.Append would never write.
func rawTable(t *testing.T, pool *storage.Pool, cat *table.Catalog, bodies ...[]byte) *table.Table {
	t.Helper()
	const headerSize = 64
	img := make([]byte, headerSize)
	for _, body := range bodies {
		ptr := len(img)
		img = binary.AppendUvarint(img, uint64(len(body)))
		img = append(img, body...)
		crc := storage.ChecksumUpdateUint64(storage.Checksum(img[ptr:]), uint64(ptr))
		img = binary.LittleEndian.AppendUint32(img, crc)
	}
	binary.LittleEndian.PutUint32(img[0:], 0x53575442)
	binary.LittleEndian.PutUint32(img[4:], uint32(len(bodies)))  // next tid
	binary.LittleEndian.PutUint64(img[8:], uint64(len(bodies)))  // live
	binary.LittleEndian.PutUint64(img[16:], uint64(len(bodies))) // total
	binary.LittleEndian.PutUint64(img[24:], uint64(len(img)))    // data end
	binary.LittleEndian.PutUint32(img[32:], 3)                   // the format word
	binary.LittleEndian.PutUint64(img[36:], headerSize)          // records carry CRC trailers from the first on
	binary.LittleEndian.PutUint32(img[44:], storage.Checksum(img[:44]))
	dev := storage.NewMemDevice()
	if _, err := dev.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := table.Open(storage.NewFile(pool, dev), cat)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBuildRejectsMalformedRecords: Build interprets record bytes itself, so a
// record naming an attribute the catalog does not know must fail the build
// (the walker's bound check) rather than reach a list builder. Order and kind
// need no check: ids are gap-coded, so they strictly ascend, and kinds come
// from the catalog.
func TestBuildRejectsMalformedRecords(t *testing.T) {
	num := func(body []byte, gap uint64, v float64) []byte {
		body = binary.AppendUvarint(body, gap<<1)
		return binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	head := func(tid, nattrs uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, tid), nattrs)
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"sorted", "", num(num(head(0, 2), 0, 1), 0, 2)},
		{"unregistered", "unregistered attribute", num(head(0, 1), 7, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := storage.NewPool(0, 1<<20)
			cat := table.NewCatalog()
			for _, name := range []string{"a", "b"} {
				if _, err := cat.AddAttr(name, model.KindNumeric); err != nil {
					t.Fatal(err)
				}
			}
			tbl := rawTable(t, pool, cat, tc.body)
			_, err := Build(tbl, storage.NewFile(pool, storage.NewMemDevice()), Options{})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("well-formed record: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
