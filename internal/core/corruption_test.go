package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vector"
)

// corruptionFixture is a small store on raw MemDevices so the sweep can flip
// bits in the committed index image and reopen it.
type corruptionFixture struct {
	tblDev, idxDev *storage.MemDevice
	cat            *table.Catalog
	queries        []*model.Query
	baseline       [][]model.Result
	snapshot       []byte // committed index image
	// committed[off] marks index-file bytes whose corruption MUST be
	// detected: the superblock prefix and every fully-committed byte of a
	// checksum-covered segment.
	committed map[int64]bool
	// mapBytes marks the bytes of the committed checksum map itself — header,
	// records, trailer; not its segments' headers or unused tails. Damage
	// there drops the map, and verification with it, until the next Sync.
	mapBytes map[int64]bool
	// packedAttrs counts vector lists stored under a block codec, so sweeps
	// that exist to torture packed blocks can assert they are not vacuous.
	packedAttrs int
}

func buildCorruptionFixture(t *testing.T) *corruptionFixture {
	t.Helper()
	return buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16}, false, 160)
}

// buildCorruptionFixtureWith builds the fixture under explicit options, so
// the sweep can rerun against packed vector lists (codec 1).
// sparse switches to a low-density population: the cost-based layout chooser
// only assigns the tid-bearing Types I/II — the ones the packed codec
// applies to — when attributes are sparse enough to beat positional storage.
// rows sizes the table (at CheckpointEvery 16 it needs at least 17 to stripe).
func buildCorruptionFixtureWith(t *testing.T, opts Options, sparse bool, rows int) *corruptionFixture {
	t.Helper()
	cf := &corruptionFixture{
		tblDev:    storage.NewMemDevice(),
		idxDev:    storage.NewMemDevice(),
		cat:       table.NewCatalog(),
		committed: make(map[int64]bool),
		mapBytes:  make(map[int64]bool),
	}
	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	num, err := cf.cat.AddAttr("price", model.KindNumeric)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := cf.cat.AddAttr("title", model.KindText)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.New(tblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	txtEvery := 2
	if sparse {
		// Sparse enough that the text list goes tid-bearing (and packed under
		// codec 1); the dense numeric stays positional/raw, so the sweep
		// tortures packed blocks and a raw list side by side.
		txtEvery = 11
	}
	for i := 0; i < rows; i++ {
		vals := map[model.AttrID]model.Value{num: model.Num(float64(i%37) * 3)}
		if i%txtEvery == 0 {
			vals[txt] = model.Text(fmt.Sprintf("camera model %d", i%23))
		}
		if _, _, err := tbl.Append(vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tbl, idxF, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p := ix.planShape(); len(p.ckpts) < 2 {
		t.Fatal("fixture not striped")
	}
	for i := range ix.attrs {
		if ix.attrs[i].codecID != vector.CodecRaw {
			cf.packedAttrs++
		}
	}

	qn := &model.Query{K: 5}
	qn.NumTerm(num, 42)
	qt := &model.Query{K: 5}
	qt.TextTerm(txt, "camera model 7")
	qb := &model.Query{K: 5}
	qb.NumTerm(num, 60)
	qb.TextTerm(txt, "camera model 3")
	cf.queries = []*model.Query{qn, qt, qb}
	for _, q := range cf.queries {
		res, _, err := ix.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		cf.baseline = append(cf.baseline, res)
	}

	// Record the byte ranges whose corruption the format promises to detect:
	// the checksummed superblock prefix and the committed span of every
	// covered segment (minus a partially-committed final byte, whose free low
	// bits are legitimately ignored).
	for off := int64(0); off < sbCRCOff+4; off++ {
		cf.committed[off] = true
	}
	it := &ix.integ
	mapLen := int64(8 + 4) // header and trailer, around a record per covered chain
	for _, cov := range ix.coveredChains(ix.slotChain(ix.attrSlot)) {
		ids, err := ix.segs.ChainSegments(cov.chain)
		if err != nil {
			t.Fatal(err)
		}
		mapLen += 16 + 4*int64(len(ids))
	}
	it.mu.Lock()
	for id, e := range it.words {
		base := ix.segs.SegmentOffset(id) + 8 // past the segment header
		n := int64(e.n)
		if e.mask != 0 && n > 0 {
			n-- // final byte is partial
		}
		for off := base; off < base+n; off++ {
			cf.committed[off] = true
		}
	}
	it.mu.Unlock()
	mapSegs, err := ix.segs.ChainSegments(ix.crcChain(ix.crcSlot))
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < mapLen; off++ {
		k, in, _ := storage.SegAt(off)
		cf.mapBytes[ix.segs.SegmentOffset(mapSegs[k])+storage.SegHeaderLen+in] = true
	}

	tblF.Close()
	idxF.Close()
	cf.snapshot = make([]byte, cf.idxDev.Size())
	if _, err := cf.idxDev.ReadAt(cf.snapshot, 0); err != nil {
		t.Fatal(err)
	}
	return cf
}

func (cf *corruptionFixture) restore(t *testing.T) {
	t.Helper()
	if err := cf.idxDev.Truncate(int64(len(cf.snapshot))); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.idxDev.WriteAt(cf.snapshot, 0); err != nil {
		t.Fatal(err)
	}
}

// open opens the fixture's current device images through pool; the returned
// func closes both files.
func (cf *corruptionFixture) open(t *testing.T, pool *storage.Pool, opts Options) (*Index, func()) {
	t.Helper()
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(idxF, tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, func() { tblF.Close(); idxF.Close() }
}

func (cf *corruptionFixture) flip(t *testing.T, off int64, bit uint) {
	t.Helper()
	var b [1]byte
	if _, err := cf.idxDev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << bit
	if _, err := cf.idxDev.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func sameResults(a, b []model.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCorruptionTortureSweep flips one bit at a stride of byte offsets across
// the committed index image, reopens the store, and asserts the contract the format makes: a query either fails with an error
// or returns the exact clean top-k — never a silently different answer — and
// every flip landing in checksummed bytes is detected by at least one of
// open, query (DegradedSegments > 0), or Scrub.
func TestCorruptionTortureSweep(t *testing.T) {
	cf := buildCorruptionFixture(t)
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

// runOnce opens the flipped image and runs every query, enforcing the
// never-silently-wrong invariant. It reports whether the flip was detected.
func (cf *corruptionFixture) runOnce(t *testing.T, off int64, degradedTotal *int) bool {
	t.Helper()
	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	defer tblF.Close()
	defer idxF.Close()
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatalf("flip at %d: table open: %v", off, err)
	}
	ix, err := Open(idxF, tbl, Options{})
	if err != nil {
		return true // detected at open
	}
	detected := false
	for qi, q := range cf.queries {
		res, stats, err := ix.Search(q, nil)
		if err != nil {
			detected = true // detected at query time
			continue
		}
		if !sameResults(res, cf.baseline[qi]) {
			t.Fatalf("flip at %d: query %d returned silently different results", off, qi)
		}
		if stats.DegradedSegments > 0 {
			*degradedTotal += stats.DegradedSegments
			detected = true
		}
	}
	if detected {
		return true
	}
	rep, err := ix.Scrub()
	if err != nil {
		return true
	}
	return !rep.Clean()
}

// runMapDamaged holds an image whose committed checksum map is damaged —
// alone or together with anything else — to what the format promises then
// (FORMAT.md § Checksums): the open fails, or the store runs with verification
// off and says so. Queries must run (answer or fail, not panic) but have no
// checksum behind them and are not compared; Scrub must not come back clean.
func (cf *corruptionFixture) runMapDamaged(t *testing.T, off int64) {
	t.Helper()
	pool := storage.NewPool(0, 1<<20)
	tblF := storage.NewFile(pool, cf.tblDev)
	idxF := storage.NewFile(pool, cf.idxDev)
	defer tblF.Close()
	defer idxF.Close()
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatalf("flip at %d: table open: %v", off, err)
	}
	ix, err := Open(idxF, tbl, Options{})
	if err != nil {
		return
	}
	for _, q := range cf.queries {
		ix.Search(q, nil)
	}
	if rep, err := ix.Scrub(); err == nil && rep.Clean() {
		t.Fatalf("flip at %d: a damaged checksum map went unreported", off)
	}
}

// TestPlanSingleStripeDegrades corrupts a vector-list segment of an index
// that scans as one origin-anchored stripe (no checkpoints to resynchronize
// from): the damaged term degrades for the rest of the scan and the answers
// still equal brute force, on one worker, with no page left pinned.
func TestPlanSingleStripeDegrades(t *testing.T) {
	cf := buildCorruptionFixture(t)
	probe, closeProbe := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	exts := probe.VectorExtents()
	if len(exts) == 0 {
		t.Fatal("fixture has no committed vector extents")
	}
	off := exts[0].Offset + exts[0].Len/2
	closeProbe()
	cf.flip(t, off, 3)
	defer cf.restore(t)

	pool := storage.NewPool(0, 1<<20)
	ix, closeFiles := cf.open(t, pool, Options{})
	defer closeFiles()
	dropCheckpoints(ix)
	degraded := 0
	for _, par := range []int{1, 8} {
		ix.SetSearchParallelism(par)
		for qi, q := range cf.queries {
			res, stats, err := ix.Search(q, nil)
			if err != nil {
				t.Fatalf("par=%d query %d: %v", par, qi, err)
			}
			if want := bruteForceIndex(t, ix, q, metric.Default()); !identicalResults(res, want) {
				t.Fatalf("par=%d query %d: degraded scan diverged from brute force", par, qi)
			}
			if stats.Workers != 1 || stats.StripesTotal != 1 {
				t.Fatalf("par=%d query %d: %d workers over %d stripes", par, qi, stats.Workers, stats.StripesTotal)
			}
			degraded += stats.DegradedSegments
			if n := pool.PinnedFrames(); n != 0 {
				t.Fatalf("par=%d query %d leaked %d pins", par, qi, n)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query read past the corrupt segment")
	}
}

// reopenFixture opens a fixture's device images through a fresh pool, so that
// bytes damaged on the devices are what the index reads.
func reopenFixture(t *testing.T, fx *fixture, opts Options) (*Index, *storage.Pool, func()) {
	t.Helper()
	pool := storage.NewPool(0, 10<<20)
	tblF := storage.NewFile(pool, fx.tblDev)
	idxF := storage.NewFile(pool, fx.idxDev)
	tbl, err := table.Open(tblF, fx.tbl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(idxF, tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pool, func() { tblF.Close(); idxF.Close() }
}

func flipByte(t *testing.T, dev *storage.MemDevice, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := dev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := dev.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestProjectedRefineDetectsTableCorruption flips one byte of a table record
// the refine step is certain to read: the best result's, whose bound is below
// the final k-th distance, so every exact plan fetches it. The projected
// refine interprets no byte before the record's checksum holds, so the query
// fails with a typed corruption error — degrading is for vector lists,
// refinement cannot run without the record — and releases every pin.
func TestProjectedRefineDetectsTableCorruption(t *testing.T) {
	fx := newFixture(t, 700, Options{}, 515)
	q := fx.randQuery(t, 3, 5)
	if err := fx.ix.Sync(); err != nil {
		t.Fatal(err)
	}
	res, _, err := fx.ix.Search(q, nil)
	if err != nil || len(res) == 0 || res[0].Dist >= res[len(res)-1].Dist {
		t.Fatalf("the best result is not strictly below the k-th distance: %v, %v", res, err)
	}
	var first int64
	for _, e := range fx.ix.entries {
		if e.tid == res[0].TID {
			first = e.ptr
		}
	}
	for _, off := range []int64{first + 5, first + 12} { // the tuple id, an attribute's payload
		flipByte(t, fx.tblDev, off)
		ix, pool, closeFiles := reopenFixture(t, fx, Options{})
		for _, par := range []int{1, 2} {
			ix.SetSearchParallelism(par)
			_, _, err := ix.Search(q, nil)
			var ce *storage.CorruptionError
			if !errors.As(err, &ce) || ce.File != "table.swt" || ce.Offset != first {
				t.Fatalf("par=%d flip at %d: got %v, want a corruption error on the record at %d", par, off, err, first)
			}
			if n := pool.PinnedFrames(); n != 0 {
				t.Fatalf("par=%d: failed refine leaked %d pins", par, n)
			}
		}
		closeFiles()
		flipByte(t, fx.tblDev, off) // undo
	}
}

// TestMidBatchDegrade damages a vector-list segment that a stripe reaches in
// the middle of a batch (the list's second segment: its first verifies clean,
// so the batch kernel is past the batch's first entries when the checksum
// fails). The term contributes a zero bound from the first unresolved entry to
// the end of the stripe, the answers equal brute force, and no page stays
// pinned.
func TestMidBatchDegrade(t *testing.T) {
	fx := newFixture(t, 6000, Options{}, 907)
	if err := fx.ix.Sync(); err != nil {
		t.Fatal(err)
	}
	// A text attribute whose list spans several segments.
	attr, ids := -1, []storage.SegID(nil)
	for i := range fx.ix.attrs {
		st := &fx.ix.attrs[i]
		if !st.exists || st.layout.Kind != model.KindText {
			continue
		}
		if segs, err := fx.ix.segs.ChainSegments(st.chain); err == nil && len(segs) >= 3 {
			attr, ids = i, segs
			break
		}
	}
	if attr < 0 {
		t.Fatal("fixture has no multi-segment text list")
	}
	flipByte(t, fx.idxDev, fx.ix.segs.SegmentOffset(ids[1])+8+100)
	q := (&model.Query{K: 10}).TextTerm(model.AttrID(attr), fx.randWord()).NumTerm(fx.numAttrs[0], 250)
	m := metric.Default()

	ix, pool, closeFiles := reopenFixture(t, fx, Options{})
	defer closeFiles()
	want := bruteForceIndex(t, ix, q, m)
	for _, par := range []int{1, 2} {
		ix.SetSearchParallelism(par)
		res, stats, err := ix.Search(q, m)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !identicalResults(res, want) {
			t.Fatalf("par=%d: degraded answers diverged from brute force", par)
		}
		if stats.DegradedSegments < 1 {
			t.Fatalf("par=%d: the damaged segment was never reported", par)
		}
		if stats.Scanned != 6000 {
			t.Fatalf("par=%d: scanned %d of 6000", par, stats.Scanned)
		}
		if n := pool.PinnedFrames(); n != 0 {
			t.Fatalf("par=%d: degraded query leaked %d pins", par, n)
		}
	}
	// An explained search reports its bounds, so it takes no degradation: the
	// same damage fails it with the typed error, and every pin is released.
	_, err := ix.ExplainSearch(q, m)
	var ce *storage.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("explain over the damaged list: %v, want a corruption error", err)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("failed explain leaked %d pins", n)
	}
}

// TestCrossLinkedChainsRefused splices one vector list's chain into
// another's by rewriting a segment's next pointer — the one index structure
// no checksum covers — onto a segment of the size the position demands, which
// is the one splice the chain walk itself cannot refuse. Every spliced-in
// segment still matches its own checksum word, so nothing downstream could
// tell; the open must refuse the file with a typed corruption error.
func TestCrossLinkedChainsRefused(t *testing.T) {
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16}, false, 320)
	ix, closeFiles := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	a, err := ix.segs.ChainSegments(ix.attrs[0].chain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.segs.ChainSegments(ix.attrs[1].chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < 3 || len(b) < 3 {
		t.Fatalf("fixture chains too short to splice: %v %v", a, b)
	}
	at := ix.segs.SegmentOffset(a[1]) // its next pointer leads to a[2]
	closeFiles()
	var next [4]byte
	binary.LittleEndian.PutUint32(next[:], uint32(b[2]))
	if _, err := cf.idxDev.WriteAt(next[:], at); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool(0, 1<<20)
	tblF, idxF := storage.NewFile(pool, cf.tblDev), storage.NewFile(pool, cf.idxDev)
	defer tblF.Close()
	defer idxF.Close()
	tbl, err := table.Open(tblF, cf.cat)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(idxF, tbl, Options{})
	var ce *storage.CorruptionError
	if !errors.As(err, &ce) || ce.Segment != uint32(b[2]) {
		t.Fatalf("open of cross-linked chains: %v, want a corruption error on segment %d", err, b[2])
	}
}

// TestDamagedHeaderKeepsChecksumMap damages the text list's chain in its
// segment headers — a class byte, which fails the walk; a next pointer cut
// over to the committed checksum map's own second segment, which no checksum
// word covers, so the chain walks one segment short of what the map records —
// together with one committed byte of the numeric list. The map's own trailer
// verifies, so the map stays: the numeric query degrades and answers exactly
// (the second flip is seen), and the text query fails or degrades, never a
// different top-k.
func TestDamagedHeaderKeepsChecksumMap(t *testing.T) {
	cf := buildCorruptionFixture(t)
	probe, closeProbe := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	num, err := probe.segs.ChainSegments(probe.attrs[0].chain)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := probe.segs.ChainSegments(probe.attrs[1].chain)
	if err != nil {
		t.Fatal(err)
	}
	crcMap, err := probe.segs.ChainSegments(probe.crcChain(probe.crcSlot))
	if err != nil {
		t.Fatal(err)
	}
	if len(txt) < 3 || len(crcMap) < 2 {
		t.Fatalf("fixture chains too short: text %v, checksum map %v", txt, crcMap)
	}
	offsetOf := probe.segs.SegmentOffset
	numByte := offsetOf(num[0]) + storage.SegHeaderLen
	if !cf.committed[numByte] {
		t.Fatal("the numeric list's first byte is not committed")
	}
	closeProbe()
	for _, tc := range []struct {
		name   string
		damage func()
	}{
		{"walk fails", func() { cf.flip(t, offsetOf(txt[1])+4, 1) }},
		{"walk comes up short", func() {
			var next [4]byte
			binary.LittleEndian.PutUint32(next[:], uint32(crcMap[1]))
			if _, err := cf.idxDev.WriteAt(next[:], offsetOf(txt[0])); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer cf.restore(t)
			tc.damage()
			cf.flip(t, numByte, 6)
			ix, closeFiles := cf.open(t, storage.NewPool(0, 1<<20), Options{})
			defer closeFiles()
			if ix.integ.mapDropped {
				t.Fatal("a damaged segment header dropped the checksum map")
			}
			res, stats, err := ix.Search(cf.queries[0], nil)
			if err != nil || !sameResults(res, cf.baseline[0]) || stats.DegradedSegments == 0 {
				t.Fatalf("numeric query: err %v, %d degraded segments, exact %v — want the flip seen and the answer exact",
					err, stats.DegradedSegments, sameResults(res, cf.baseline[0]))
			}
			res, stats, err = ix.Search(cf.queries[1], nil)
			if err == nil && (stats.DegradedSegments == 0 || !sameResults(res, cf.baseline[1])) {
				t.Fatalf("text query over a damaged chain answered %v with %d degraded segments", res, stats.DegradedSegments)
			}
		})
	}
}

// TestDamagedChecksumMapIsReported is the pair the format does not detect,
// pinned down: a flip in the committed checksum map drops the map, so a flip
// in a checksummed byte beside it goes unverified until the next Sync. What
// the format does promise then is that the store says so.
func TestDamagedChecksumMapIsReported(t *testing.T) {
	cf := buildCorruptionFixture(t)
	defer cf.restore(t)
	var mapByte, listByte int64 = -1, -1
	for off := int64(len(cf.snapshot)) - 1; off >= superblockSize; off-- {
		if cf.mapBytes[off] {
			mapByte = off
		}
		if cf.committed[off] {
			listByte = off
		}
	}
	if mapByte < 0 || listByte < 0 {
		t.Fatal("fixture has no committed map or list byte")
	}
	cf.flip(t, mapByte, 0)
	cf.flip(t, listByte, 0)
	ix, closeFiles := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	defer closeFiles()
	rep, err := ix.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MapDropped || rep.Clean() {
		t.Fatalf("scrub over a damaged checksum map: dropped %v, clean %v", rep.MapDropped, rep.Clean())
	}
}

// TestScrubSeesRewriteBehindAppends rewrites one committed tuple-list byte
// after unsynced inserts have appended behind it, in the same segment. The
// segment's committed word still holds for the bytes below the committed end,
// so Scrub reports exactly that segment rather than skipping it as written
// since the last Sync.
func TestScrubSeesRewriteBehindAppends(t *testing.T) {
	fx := newFixture(t, 40, Options{}, 46)
	ix := fx.ix
	committed := ix.tupleBits
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	off := committed/8 - 1 // the last byte whose 8 bits are all committed
	var b [1]byte
	if err := ix.segs.ReadAt(ix.tupleChain, b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if err := ix.segs.WriteAt(ix.tupleChain, b[:], off); err != nil {
		t.Fatal(err)
	}
	rep, err := ix.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptSegments != 1 || rep.Clean() {
		t.Fatalf("scrub after rewriting committed byte %d: %d corrupt segments, clean %v, want 1 and false",
			off, rep.CorruptSegments, rep.Clean())
	}
}
