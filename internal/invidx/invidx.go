// Package invidx implements SII, the sparse inverted index of Yu et al. [7]
// — the only index previously evaluated for sparse wide tables and the
// paper's primary baseline. For each attribute it keeps the sorted list of
// ids of the tuples that define the attribute; a query scans the lists of
// its defined attributes ("partial scan") and random-accesses the table file
// for every tuple appearing in at least one list. The index distinguishes
// only ndf from non-ndf — it captures nothing about values — which is
// exactly the filtering weakness the iVA-file addresses.
//
// Tuples defining none of the query's attributes all share one exactly-known
// distance (every per-attribute difference is the ndf penalty), so SII
// admits them to a non-full pool without fetching.
//
// The on-disk format mirrors the iVA-file's substrate: a superblock, a
// directory chain of <tid, ptr> elements (ptr all-ones marks deletion), and
// one bit-packed tid chain per attribute, all growable at the tail.
package invidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
)

const (
	magic          = 0x53494958 // "SIIX"
	version        = 1
	superblockSize = 4096
	ptrBits        = 40
	attrElemSize   = 16
)

var tombstonePtr = uint64(1)<<ptrBits - 1

// ErrNeedsRebuild mirrors the iVA-file's overflow signal.
var ErrNeedsRebuild = errors.New("invidx: packed field overflow, index rebuild required")

// ErrNotFound is returned for operations on unknown tuple ids.
var ErrNotFound = errors.New("invidx: tuple not found")

// Options configure an SII build.
type Options struct {
	TIDHeadroom int64
}

type attrList struct {
	chain  storage.ChainID
	bitLen int64
	exists bool
}

type dirEntry struct {
	tid     model.TID
	ptr     int64
	deleted bool
}

// Index is an open SII bound to its table.
type Index struct {
	f    *storage.File
	segs *storage.SegStore
	tbl  *table.Table

	mu       sync.RWMutex
	ltid     int
	attrs    []attrList
	attrMeta storage.ChainID
	dirChain storage.ChainID
	dirBits  int64
	entries  []dirEntry
	posByTID map[model.TID]int64
	deleted  int64
}

// Table returns the bound table.
func (ix *Index) Table() *table.Table { return ix.tbl }

// SizeBytes returns the index file size.
func (ix *Index) SizeBytes() int64 { return ix.f.Size() }

// Entries returns the directory length including tombstones.
func (ix *Index) Entries() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return int64(len(ix.entries))
}

// Deleted returns the tombstone count.
func (ix *Index) Deleted() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.deleted
}

// DeletedFraction returns deleted/entries for the cleaning policy.
func (ix *Index) DeletedFraction() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.entries) == 0 {
		return 0
	}
	return float64(ix.deleted) / float64(len(ix.entries))
}

func (ix *Index) maxTID() model.TID { return model.TID(uint64(1)<<uint(ix.ltid) - 1) }

// Build constructs an SII over every record of tbl into f.
func Build(tbl *table.Table, f *storage.File, opts Options) (*Index, error) {
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	segs := storage.NewSegStore(f, superblockSize)
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
		f: f, segs: segs, tbl: tbl,
		ltid:     ltid,
		posByTID: make(map[model.TID]int64),
	}
	var err error
	if ix.dirChain, err = segs.Create(); err != nil {
		return nil, err
	}
	if ix.attrMeta, err = segs.Create(); err != nil {
		return nil, err
	}
	nattrs := tbl.Catalog().NumAttrs()
	writers := make([]*bitio.Writer, nattrs)
	for i := 0; i < nattrs; i++ {
		chain, err := segs.Create()
		if err != nil {
			return nil, err
		}
		ix.attrs = append(ix.attrs, attrList{chain: chain, exists: true})
		writers[i] = &bitio.Writer{}
	}
	var dirW bitio.Writer
	err = tbl.Scan(func(ptr int64, tp *model.Tuple) error {
		if tp.TID > ix.maxTID() {
			return fmt.Errorf("invidx: tid %d exceeds %d bits", tp.TID, ix.ltid)
		}
		if uint64(ptr) >= tombstonePtr {
			return fmt.Errorf("invidx: ptr %d exceeds %d bits", ptr, ptrBits)
		}
		pos := int64(len(ix.entries))
		dirW.WriteBits(uint64(tp.TID), ix.ltid)
		dirW.WriteBits(uint64(ptr), ptrBits)
		ix.entries = append(ix.entries, dirEntry{tid: tp.TID, ptr: ptr})
		ix.posByTID[tp.TID] = pos
		for _, a := range tp.Attrs() {
			writers[a].WriteBits(uint64(tp.TID), ix.ltid)
		}
		// Bound memory: flush big writers as we go.
		if dirW.Len() >= 64<<10*8 {
			if err := ix.flushDir(&dirW); err != nil {
				return err
			}
		}
		for i, w := range writers {
			if w.Len() >= 64<<10*8 {
				if err := ix.flushAttr(model.AttrID(i), w); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ix.flushDir(&dirW); err != nil {
		return nil, err
	}
	for i, w := range writers {
		if err := ix.flushAttr(model.AttrID(i), w); err != nil {
			return nil, err
		}
	}
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return ix, nil
}

func (ix *Index) flushDir(w *bitio.Writer) error {
	if w.Len() == 0 {
		return nil
	}
	n, err := storage.AppendBits(ix.segs, ix.dirChain, ix.dirBits, w.Bytes(), w.Len())
	if err != nil {
		return err
	}
	ix.dirBits = n
	w.Reset()
	return nil
}

func (ix *Index) flushAttr(a model.AttrID, w *bitio.Writer) error {
	if w.Len() == 0 {
		return nil
	}
	st := &ix.attrs[a]
	n, err := storage.AppendBits(ix.segs, st.chain, st.bitLen, w.Bytes(), w.Len())
	if err != nil {
		return err
	}
	st.bitLen = n
	w.Reset()
	return nil
}

// Sync checkpoints the superblock and attribute metadata.
func (ix *Index) Sync() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	buf := make([]byte, attrElemSize*len(ix.attrs))
	for i, a := range ix.attrs {
		e := buf[i*attrElemSize:]
		if !a.exists {
			continue
		}
		e[0] = 1
		binary.LittleEndian.PutUint32(e[4:], uint32(a.chain))
		binary.LittleEndian.PutUint64(e[8:], uint64(a.bitLen))
	}
	if err := ix.segs.WriteAt(ix.attrMeta, buf, 0); err != nil {
		return err
	}
	var b [superblockSize]byte
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	b[8] = byte(ix.ltid)
	binary.LittleEndian.PutUint32(b[12:], uint32(ix.dirChain))
	binary.LittleEndian.PutUint64(b[16:], uint64(ix.dirBits))
	binary.LittleEndian.PutUint64(b[24:], uint64(len(ix.entries)))
	// Bytes 32..40 are unused: a deletion marks its directory entry in place
	// before any Sync, so Open counts the marks it reads instead.
	binary.LittleEndian.PutUint32(b[40:], uint32(ix.attrMeta))
	binary.LittleEndian.PutUint32(b[44:], uint32(len(ix.attrs)))
	binary.LittleEndian.PutUint32(b[48:], storage.SegGeometry)
	if err := ix.f.WriteAt(b[:], 0); err != nil {
		return err
	}
	return ix.f.Sync()
}

// Open attaches to an SII previously built over tbl.
func Open(f *storage.File, tbl *table.Table, opts Options) (*Index, error) {
	var b [superblockSize]byte
	if err := f.ReadAt(b[:], 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b[0:]) != magic {
		return nil, fmt.Errorf("invidx: bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != version {
		return nil, fmt.Errorf("invidx: version %d unsupported", v)
	}
	if g := binary.LittleEndian.Uint32(b[48:]); g != storage.SegGeometry {
		return nil, fmt.Errorf("invidx: segment geometry %#x, want %#x", g, storage.SegGeometry)
	}
	segs := storage.NewSegStore(f, superblockSize)
	ix := &Index{
		f: f, segs: segs, tbl: tbl,
		ltid:     int(b[8]),
		dirChain: storage.ChainID(binary.LittleEndian.Uint32(b[12:])),
		dirBits:  int64(binary.LittleEndian.Uint64(b[16:])),
		attrMeta: storage.ChainID(binary.LittleEndian.Uint32(b[40:])),
		posByTID: make(map[model.TID]int64),
	}
	nattrs := int(binary.LittleEndian.Uint32(b[44:]))
	meta := make([]byte, attrElemSize*nattrs)
	if err := ix.segs.ReadAt(ix.attrMeta, meta, 0); err != nil {
		return nil, err
	}
	ix.attrs = make([]attrList, nattrs)
	for i := 0; i < nattrs; i++ {
		e := meta[i*attrElemSize:]
		if e[0] != 1 {
			continue
		}
		ix.attrs[i] = attrList{
			chain:  storage.ChainID(binary.LittleEndian.Uint32(e[4:])),
			bitLen: int64(binary.LittleEndian.Uint64(e[8:])),
			exists: true,
		}
	}
	entryCount := int64(binary.LittleEndian.Uint64(b[24:]))
	r := storage.NewChainBitReader(segs, ix.dirChain, ix.dirBits)
	defer r.Close()
	ix.entries = make([]dirEntry, 0, entryCount)
	for i := int64(0); i < entryCount; i++ {
		tid, err := r.ReadBits(ix.ltid)
		if err != nil {
			return nil, err
		}
		ptr, err := r.ReadBits(ptrBits)
		if err != nil {
			return nil, err
		}
		e := dirEntry{tid: model.TID(tid), ptr: int64(ptr), deleted: ptr == tombstonePtr}
		ix.entries = append(ix.entries, e)
		if e.deleted {
			ix.deleted++
		} else {
			ix.posByTID[e.tid] = i
		}
	}
	return ix, nil
}

// SearchStats mirrors core.SearchStats for the comparison harness.
type SearchStats struct {
	Scanned       int64
	Candidates    int64
	TableAccesses int64
	FilterWall    time.Duration
	RefineWall    time.Duration
	FilterIO      storage.Snapshot
	RefineIO      storage.Snapshot
}

// Total returns the full wall time.
func (s SearchStats) Total() time.Duration { return s.FilterWall + s.RefineWall }

// candidateSets holds the searches' candidate bitsets, one bit per tid.
var candidateSets = sync.Pool{New: func() any { return new([]uint64) }}

// Search answers a top-k query: scan the tid lists of the query's
// attributes, fetch-and-check every tuple defining at least one of them, and
// admit all-ndf tuples at their exactly-known constant distance without
// fetching.
func (ix *Index) Search(q *model.Query, m *metric.Metric) ([]model.Result, SearchStats, error) {
	var stats SearchStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	if m == nil {
		m = metric.Default()
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pstats := ix.f.Pool().Stats()
	startIO := pstats.Snapshot()
	wallStart := time.Now()
	startAccesses := ix.tbl.Accesses()

	// Filter: mark the tuples on the queried attributes' tid lists in a
	// bitset over the table's tids, reused from query to query.
	bs := candidateSets.Get().(*[]uint64)
	defer candidateSets.Put(bs)
	nw := int(ix.tbl.NextTID()/64) + 1
	candidates := slices.Grow((*bs)[:0], nw)[:nw]
	clear(candidates)
	*bs = candidates
	for _, term := range q.Terms {
		if int(term.Attr) >= len(ix.attrs) || !ix.attrs[term.Attr].exists {
			continue
		}
		st := ix.attrs[term.Attr]
		r := storage.NewChainBitReader(ix.segs, st.chain, st.bitLen)
		for r.Remaining() >= int64(ix.ltid) {
			v, err := r.ReadBits(ix.ltid)
			if err != nil {
				r.Close()
				return nil, stats, err
			}
			if w, bit := v/64, uint64(1)<<(v%64); w < uint64(len(candidates)) && candidates[w]&bit == 0 {
				candidates[w] |= bit
				stats.Candidates++
			}
		}
		r.Close()
	}

	pool := topk.New(q.K)
	// Refine: sequential pass over the directory; fetch candidates, admit
	// non-candidates at the all-ndf distance without fetching. The terms'
	// edit-distance patterns are prepared once, not per candidate.
	ndfDist := m.AllNDFDistance(q)
	exact, diffs := make([]metric.TermExact, len(q.Terms)), make([]float64, len(q.Terms))
	for i, term := range q.Terms {
		exact[i].Set(term)
	}
	refineStart := time.Now()
	stats.FilterWall = refineStart.Sub(wallStart)
	stats.FilterIO = pstats.Snapshot().Sub(startIO)
	refineIOStart := pstats.Snapshot()

	r := storage.NewChainBitReader(ix.segs, ix.dirChain, ix.dirBits)
	defer r.Close()
	for i := int64(0); i < int64(len(ix.entries)); i++ {
		tidBits, err := r.ReadBits(ix.ltid)
		if err != nil {
			return nil, stats, err
		}
		ptr, err := r.ReadBits(ptrBits)
		if err != nil {
			return nil, stats, err
		}
		if ptr == tombstonePtr {
			continue
		}
		tid := model.TID(tidBits)
		stats.Scanned++
		if w := tidBits / 64; w < uint64(len(candidates)) && candidates[w]&(1<<(tidBits%64)) != 0 {
			tp, err := ix.tbl.Fetch(int64(ptr))
			if err != nil {
				return nil, stats, err
			}
			for i := range exact {
				diffs[i] = exact[i].Diff(tp, m.NDFPenalty)
			}
			pool.Insert(tid, m.Distance(q.Terms, diffs))
		} else if pool.Admits(ndfDist) {
			pool.Insert(tid, ndfDist)
		}
	}
	stats.RefineWall = time.Since(refineStart)
	stats.RefineIO = pstats.Snapshot().Sub(refineIOStart)
	stats.TableAccesses = ix.tbl.Accesses() - startAccesses
	return pool.Results(), stats, nil
}

// Insert appends a tuple to the table, the directory tail, and the tid list
// of every defined attribute.
func (ix *Index) Insert(values map[model.AttrID]model.Value) (model.TID, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	tid := ix.tbl.NextTID()
	if tid > ix.maxTID() {
		return 0, ErrNeedsRebuild
	}
	if n := ix.tbl.Catalog().NumAttrs(); n > len(ix.attrs) {
		for i := len(ix.attrs); i < n; i++ {
			chain, err := ix.segs.Create()
			if err != nil {
				return 0, err
			}
			ix.attrs = append(ix.attrs, attrList{chain: chain, exists: true})
		}
	}
	gotTID, ptr, err := ix.tbl.Append(values)
	if err != nil {
		return 0, err
	}
	if gotTID != tid {
		return 0, fmt.Errorf("invidx: tid raced: %d vs %d", tid, gotTID)
	}
	if uint64(ptr) >= tombstonePtr {
		return 0, ErrNeedsRebuild
	}
	var w bitio.Writer
	w.WriteBits(uint64(tid), ix.ltid)
	w.WriteBits(uint64(ptr), ptrBits)
	if ix.dirBits, err = storage.AppendBits(ix.segs, ix.dirChain, ix.dirBits, w.Bytes(), w.Len()); err != nil {
		return 0, err
	}
	ix.posByTID[tid] = int64(len(ix.entries))
	ix.entries = append(ix.entries, dirEntry{tid: tid, ptr: ptr})
	for a := range values {
		if int(a) >= len(ix.attrs) {
			return 0, fmt.Errorf("invidx: value on unregistered attribute %d", a)
		}
		var aw bitio.Writer
		aw.WriteBits(uint64(tid), ix.ltid)
		st := &ix.attrs[a]
		if st.bitLen, err = storage.AppendBits(ix.segs, st.chain, st.bitLen, aw.Bytes(), aw.Len()); err != nil {
			return 0, err
		}
	}
	return tid, nil
}

// Delete tombstones a tuple in the directory; attribute lists keep its tid
// until rebuild (queries resolve liveness through the directory).
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
	if err := ix.markDeleted(pos); err != nil {
		return err
	}
	ix.tbl.NoteDelete(tp.Values)
	ix.entries[pos].deleted = true
	delete(ix.posByTID, tid)
	ix.deleted++
	return nil
}

// markDeleted sets every bit of the directory ptr at pos, in place: the SII
// baseline keeps the paper's §IV-B tombstone.
func (ix *Index) markDeleted(pos int64) error {
	off := pos*int64(ix.ltid+ptrBits) + int64(ix.ltid)
	buf := make([]byte, (off+ptrBits+7)/8-off/8)
	if err := ix.segs.ReadAt(ix.dirChain, buf, off/8); err != nil {
		return err
	}
	for bit := off; bit < off+ptrBits; bit++ {
		buf[bit/8-off/8] |= 0x80 >> (bit & 7)
	}
	return ix.segs.WriteAt(ix.dirChain, buf, off/8)
}

// Update is delete + insert under a fresh tid.
func (ix *Index) Update(tid model.TID, values map[model.AttrID]model.Value) (model.TID, error) {
	if err := ix.Delete(tid); err != nil {
		return 0, err
	}
	return ix.Insert(values)
}
