package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vector"
)

// codecPair builds the SAME table twice — once per codec — so every check
// can diff the packed engine against the raw reference byte-for-byte. The
// attribute mix covers the packed cases: a sparse text attribute (Type I/II
// text), a sparse numeric one (tid-bearing numeric list), and a dense
// numeric one that typically lands positional and must stay raw.
type codecPair struct {
	devs [2]struct {
		tblDev, idxDev *storage.MemDevice
	}
	// One catalog per engine: the catalog accumulates df counters as rows
	// are appended, so sharing one would double every count.
	cats          [2]*table.Catalog
	tbls          [2]*table.Table
	ixs           [2]*Index // [0] codec 0, [1] codec 1
	num, spn, txt model.AttrID
	rows          int
	ckptEvery     int64
	closers       []func()
}

func (p *codecPair) close() {
	for _, c := range p.closers {
		c()
	}
}

func (p *codecPair) row(i int) map[model.AttrID]model.Value {
	vals := map[model.AttrID]model.Value{p.num: model.Num(float64(i%41) * 2)}
	if i%4 == 0 {
		vals[p.spn] = model.Num(float64(i % 17))
	}
	if i%3 == 0 {
		vals[p.txt] = model.Text(fmt.Sprintf("widget model %d", i%11))
	}
	return vals
}

func buildCodecPair(t *testing.T, rows int) *codecPair {
	t.Helper()
	p := &codecPair{rows: rows, ckptEvery: 8}
	for c := 0; c < 2; c++ {
		p.cats[c] = table.NewCatalog()
		var err error
		if p.num, err = p.cats[c].AddAttr("ts", model.KindNumeric); err != nil {
			t.Fatal(err)
		}
		if p.spn, err = p.cats[c].AddAttr("score", model.KindNumeric); err != nil {
			t.Fatal(err)
		}
		if p.txt, err = p.cats[c].AddAttr("tag", model.KindText); err != nil {
			t.Fatal(err)
		}
		pool := storage.NewPool(0, 1<<20)
		p.devs[c].tblDev, p.devs[c].idxDev = storage.NewMemDevice(), storage.NewMemDevice()
		tblF := storage.NewFile(pool, p.devs[c].tblDev)
		idxF := storage.NewFile(pool, p.devs[c].idxDev)
		p.closers = append(p.closers, func() { tblF.Close(); idxF.Close() })
		if p.tbls[c], err = table.New(tblF, p.cats[c]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, _, err := p.tbls[c].Append(p.row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.tbls[c].Sync(); err != nil {
			t.Fatal(err)
		}
		if p.ixs[c], err = Build(p.tbls[c], idxF, Options{CheckpointEvery: p.ckptEvery, Codec: c}); err != nil {
			t.Fatal(err)
		}
	}
	// The packed build must actually pack something, or every test here is
	// vacuous; and the raw build must carry no blocks at all.
	packed, blocks := 0, 0
	for i := range p.ixs[1].attrs {
		st := &p.ixs[1].attrs[i]
		if st.codecID == vector.CodecPacked {
			packed++
			blocks += len(st.dir)
			if st.physBits()%64 != 0 {
				t.Fatalf("attr %d: fresh packed build left an unaligned tail (%d phys bits)",
					i, st.physBits())
			}
		}
	}
	if packed == 0 || blocks == 0 {
		t.Fatalf("codec-1 build packed nothing (%d attrs, %d blocks)", packed, blocks)
	}
	for i := range p.ixs[0].attrs {
		st := &p.ixs[0].attrs[i]
		if st.codecID != vector.CodecRaw || len(st.dir) != 0 || st.physBits() != st.bitLen {
			t.Fatalf("codec-0 build attr %d carries codec state", i)
		}
	}
	return p
}

func (p *codecPair) queries() []*model.Query {
	qs := []*model.Query{}
	for _, k := range []int{1, 5} {
		qn := &model.Query{K: k}
		qn.NumTerm(p.spn, 9)
		qt := &model.Query{K: k}
		qt.TextTerm(p.txt, "widget model 7")
		qb := &model.Query{K: k}
		qb.NumTerm(p.num, 40)
		qb.TextTerm(p.txt, "widget model 3")
		qs = append(qs, qn, qt, qb)
	}
	return qs
}

func requireSameResults(t *testing.T, stage string, want, got []model.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", stage, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", stage, i, got[i], want[i])
		}
	}
}

// diffSearches runs every query against both engines at one and several workers and
// demands byte-identical results.
func (p *codecPair) diffSearches(t *testing.T, stage string) {
	t.Helper()
	for _, par := range []int{1, 2} {
		p.ixs[0].SetSearchParallelism(par)
		p.ixs[1].SetSearchParallelism(par)
		for qi, q := range p.queries() {
			want, _, err := p.ixs[0].Search(q, nil)
			if err != nil {
				t.Fatalf("%s: raw search q%d par%d: %v", stage, qi, par, err)
			}
			got, _, err := p.ixs[1].Search(q, nil)
			if err != nil {
				t.Fatalf("%s: packed search q%d par%d: %v", stage, qi, par, err)
			}
			requireSameResults(t, fmt.Sprintf("%s q%d par%d", stage, qi, par), want, got)
		}
	}
}

// TestCodecByteIdenticalSearch is the tentpole acceptance check at the core
// layer: the packed engine answers every query byte-identically to the raw
// one, at one and several workers.
func TestCodecByteIdenticalSearch(t *testing.T) {
	p := buildCodecPair(t, 256)
	defer p.close()
	p.diffSearches(t, "fresh")

	for c := 0; c < 2; c++ {
		rep, err := p.ixs[c].Check()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("codec %d check: %v", c, rep.Problems)
		}
	}
	// Explain and the VA-file plan baseline run the packed read path too.
	q := (&model.Query{K: 3}).TextTerm(p.txt, "widget model 5")
	exRaw, err := p.ixs[0].ExplainSearch(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	exPacked, err := p.ixs[1].ExplainSearch(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "explain", exRaw.Results, exPacked.Results)
	if exRaw.Scanned != exPacked.Scanned || exRaw.Fetched != exPacked.Fetched {
		t.Fatalf("explain counters diverged: %+v vs %+v", exRaw, exPacked)
	}
}

// TestCodecTailAndReopen drives the straddling cases: inserts append to the
// raw tail behind sealed blocks, deletes tombstone across both, and a
// Sync+reopen (the open path: attr codec bytes, block-directory walk)
// must reproduce everything byte-identically.
func TestCodecTailAndReopen(t *testing.T) {
	p := buildCodecPair(t, 200)
	defer p.close()

	// Mirrored mutations: inserts land in the raw tail (and seal further
	// stripes as boundaries pass), deletes straddle sealed blocks.
	for i := 0; i < 48; i++ {
		vals := p.row(p.rows + i)
		for c := 0; c < 2; c++ {
			if _, err := p.ixs[c].Insert(vals); err != nil {
				t.Fatalf("codec %d insert %d: %v", c, i, err)
			}
		}
	}
	for _, pos := range []int{3, 50, 97, 201, 210} {
		for c := 0; c < 2; c++ {
			tid := p.ixs[c].entries[pos].tid
			if err := p.ixs[c].Delete(tid); err != nil {
				t.Fatalf("codec %d delete pos %d: %v", c, pos, err)
			}
		}
	}
	p.diffSearches(t, "mutated")

	// Sync, drop everything, reopen from disk — the packed index must come
	// back through readAttrList's codec bytes and the block-directory walk.
	for c := 0; c < 2; c++ {
		if err := p.tbls[c].Sync(); err != nil {
			t.Fatal(err)
		}
		if err := p.ixs[c].Sync(); err != nil {
			t.Fatal(err)
		}
	}
	p.close()
	p.closers = nil
	for c := 0; c < 2; c++ {
		pool := storage.NewPool(0, 1<<20)
		tblF := storage.NewFile(pool, p.devs[c].tblDev)
		idxF := storage.NewFile(pool, p.devs[c].idxDev)
		p.closers = append(p.closers, func() { tblF.Close(); idxF.Close() })
		tb, err := table.Open(tblF, p.cats[c])
		if err != nil {
			t.Fatal(err)
		}
		if p.ixs[c], err = Open(idxF, tb, Options{Codec: c}); err != nil {
			t.Fatalf("codec %d reopen: %v", c, err)
		}
		p.tbls[c] = tb
	}
	reopened := p.ixs[1]
	packed := 0
	for i := range reopened.attrs {
		if reopened.attrs[i].codecID == vector.CodecPacked && len(reopened.attrs[i].dir) > 0 {
			packed++
		}
	}
	if packed == 0 {
		t.Fatal("reopen lost the packed block directories")
	}
	p.diffSearches(t, "reopened")
	for c := 0; c < 2; c++ {
		rep, err := p.ixs[c].Check()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("codec %d reopened check: %v", c, rep.Problems)
		}
	}
}

// TestCodecDirBrokenDegrade stomps a committed packed block and proves the
// open-time contract: the block directory is dropped (scrub reports it),
// queries stay byte-identical via zero bounds, and writes demand a rebuild.
func TestCodecDirBrokenDegrade(t *testing.T) {
	p := buildCodecPair(t, 200)
	defer p.close()
	if err := p.ixs[1].Sync(); err != nil {
		t.Fatal(err)
	}
	baseline := map[int][]model.Result{}
	for qi, q := range p.queries() {
		res, _, err := p.ixs[1].Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseline[qi] = res
	}
	// Stomp the first committed byte of a packed attribute's first block.
	var target *attrState
	targetAttr := model.AttrID(0)
	for i := range p.ixs[1].attrs {
		if p.ixs[1].attrs[i].codecID == vector.CodecPacked && len(p.ixs[1].attrs[i].dir) > 0 {
			target = &p.ixs[1].attrs[i]
			targetAttr = model.AttrID(i)
			break
		}
	}
	ids, err := p.ixs[1].segs.ChainSegments(target.chain)
	if err != nil {
		t.Fatal(err)
	}
	off := p.ixs[1].segs.SegmentOffset(ids[0]) + 8
	var b [1]byte
	if _, err := p.devs[1].idxDev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := p.devs[1].idxDev.WriteAt([]byte{b[0] ^ 0x20}, off); err != nil {
		t.Fatal(err)
	}

	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, p.devs[1].tblDev)
	idxF := storage.NewFile(pool, p.devs[1].idxDev)
	p.closers = append(p.closers, func() { tblF.Close(); idxF.Close() })
	tb, err := table.Open(tblF, p.cats[1])
	if err != nil {
		t.Fatalf("table open: %v", err)
	}
	ix, err := Open(idxF, tb, Options{})
	if err != nil {
		t.Fatalf("open rejected block damage: %v", err)
	}
	if ix.DroppedCodecDirs() == 0 {
		t.Fatal("open dropped no block directory")
	}
	degraded := 0
	for qi, q := range p.queries() {
		res, stats, err := ix.Search(q, nil)
		if err != nil {
			t.Fatalf("degraded search q%d: %v", qi, err)
		}
		touches := false
		for _, term := range q.Terms {
			touches = touches || term.Attr == targetAttr
		}
		if touches && stats.DegradedSegments == 0 {
			t.Fatalf("q%d read the dropped-directory list without degrading", qi)
		}
		degraded += stats.DegradedSegments
		requireSameResults(t, fmt.Sprintf("degraded q%d", qi), baseline[qi], res)
	}
	if degraded == 0 {
		t.Fatal("no query exercised the dropped directory")
	}
	// Row 996 carries every attribute, so the insert definitely touches the
	// dropped-directory list.
	if _, err := ix.Insert(p.row(996)); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("insert on dropped directory: %v, want ErrNeedsRebuild", err)
	}
	if _, err := ix.InsertBatch([]map[model.AttrID]model.Value{p.row(996)}); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("batch insert on dropped directory: %v, want ErrNeedsRebuild", err)
	}
	rep, err := ix.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.DroppedCodecDirs == 0 {
		t.Fatalf("scrub missed the dropped block directory: %+v", rep)
	}
}

// TestCodecTortureSweep reruns the bit-flip torture sweep over an index whose
// vector lists are stored packed: flips land in block headers and delta
// payloads, and the contract is unchanged — typed failure or the exact clean
// answer, never silence.
func TestCodecTortureSweep(t *testing.T) {
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16, Codec: 1}, true, 160)
	if cf.packedAttrs == 0 {
		t.Fatal("codec torture fixture packed no attribute")
	}
	stride := int64(211)
	if testing.Short() {
		stride = 1777
	}
	degradedTotal := 0
	for off := int64(0); off < int64(len(cf.snapshot)); off += stride {
		bit := uint(off % 8)
		cf.restore(t)
		cf.flip(t, off, bit)
		detected := cf.runOnce(t, off, &degradedTotal)
		if cf.committed[off] && !detected {
			t.Fatalf("flip at %d (bit %d): corruption of a checksummed byte was not detected", off, bit)
		}
	}
	cf.restore(t)
	if degradedTotal == 0 {
		t.Fatal("sweep never exercised the degraded-read path")
	}
}

// TestCodecValidate pins the Options.Codec contract: unknown ids are
// rejected before any build work happens.
func TestCodecValidate(t *testing.T) {
	if err := (Options{Codec: 2}.withDefaults()).Validate(); err == nil {
		t.Fatal("codec 2 validated")
	}
	if err := (Options{Codec: -1}.withDefaults()).Validate(); err == nil {
		t.Fatal("codec -1 validated")
	}
	for c := 0; c < 2; c++ {
		if err := (Options{Codec: c}.withDefaults()).Validate(); err != nil {
			t.Fatalf("codec %d rejected: %v", c, err)
		}
	}
}
