package core

import (
	"fmt"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/vector"
)

// CheckReport summarizes an index integrity scan.
type CheckReport struct {
	Entries     int64 // tuple-list elements
	Live        int64 // elements the deletion list does not name
	Attributes  int   // attribute-list elements with vector lists
	VectorElems int64 // decoded vector-list elements across all live tuples
	Problems    []string
}

// Ok reports whether the check found no problems.
func (r CheckReport) Ok() bool { return len(r.Problems) == 0 }

func (r *CheckReport) addf(format string, args ...interface{}) {
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Check walks the whole iVA-file and cross-validates it against the table:
// tuple-list order and pointers, the deletion list, per-attribute vector
// lists against the stored values (signature widths, string counts,
// quantizer codes, the lower-bound property for every stored numeric value),
// and the catalog's df statistics. It is the maintenance "fsck" a production deployment runs
// after crashes or migrations.
func (ix *Index) Check() (CheckReport, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var rep CheckReport
	rep.Entries = int64(len(ix.entries))

	// Pass 1: the on-disk tuple and deletion lists (not the in-memory mirror)
	// — order, pointer validity, agreement with the mirror.
	var lastTID model.TID
	first := true
	df := make(map[model.AttrID]int64)
	type liveTuple struct {
		tid model.TID
		pos int64
		tp  *model.Tuple
	}
	var live []liveTuple
	var rds readerSet
	defer rds.close()
	tr := rds.open(ix, ix.tupleChain, ix.tupleBits)
	for pos := int64(0); pos < int64(len(ix.entries)); pos++ {
		tidBits, err := tr.ReadBits(ix.ltid)
		if err != nil {
			rep.addf("tuple list read at pos %d: %v", pos, err)
			break
		}
		ptr, err := tr.ReadBits(ptrBits)
		if err != nil {
			rep.addf("tuple list read at pos %d: %v", pos, err)
			break
		}
		tid := model.TID(tidBits)
		mirror := ix.entries[pos]
		if ptr == tombstonePtr {
			rep.addf("pos %d: ptr holds the all-ones tombstone of format 8", pos)
		}
		if mirror.tid != tid || mirror.ptr != int64(ptr) {
			rep.addf("pos %d: disk element (%d,%d) differs from mirror (%d,%d)",
				pos, tid, ptr, mirror.tid, mirror.ptr)
		}
		if !first && tid <= lastTID {
			rep.addf("tuple list out of order at pos %d: tid %d after %d", pos, tid, lastTID)
		}
		first, lastTID = false, tid
		if mirror.deleted {
			continue
		}
		rep.Live++
		tp, err := ix.tbl.Fetch(int64(ptr))
		if err != nil {
			rep.addf("pos %d tid %d: table fetch failed: %v", pos, tid, err)
			continue
		}
		if tp.TID != tid {
			rep.addf("pos %d: tuple list says tid %d, table record says %d", pos, tid, tp.TID)
			continue
		}
		for a := range tp.Values {
			df[a]++
		}
		live = append(live, liveTuple{tid, pos, tp})
	}
	// The deletion list holds exactly the positions the mirror marks deleted,
	// each once, and as many as the superblock's count.
	dr := rds.open(ix, ix.delChain, ix.deleted*int64(ix.ltid))
	named := make(map[uint64]bool, ix.deleted)
	for i := int64(0); i < ix.deleted; i++ {
		pos, err := dr.ReadBits(ix.ltid)
		if err != nil {
			rep.addf("deletion list read at entry %d: %v", i, err)
			break
		}
		switch {
		case pos >= uint64(len(ix.entries)):
			rep.addf("deletion list entry %d: position %d outside the tuple list of %d", i, pos, len(ix.entries))
		case named[pos]:
			rep.addf("deletion list entry %d: position %d named twice", i, pos)
		case !ix.entries[pos].deleted:
			rep.addf("deletion list entry %d: position %d is live in the mirror", i, pos)
		}
		named[pos] = true
	}
	if dead := rep.Entries - rep.Live; int64(len(named)) != dead {
		rep.addf("deletion list names %d positions for the superblock's count %d; the mirror has %d deleted", len(named), ix.deleted, dead)
	}

	// Pass 2: every attribute's vector list against the stored values.
	for id := range ix.attrs {
		st := &ix.attrs[id]
		if !st.exists {
			continue
		}
		rep.Attributes++
		aid := model.AttrID(id)
		src, err := ix.termSource(st, rds.open(ix, st.chain, st.physBits()))
		if err != nil {
			rep.addf("attr %d: codec source: %v", id, err)
			continue
		}
		cur, err := vector.NewCursor(st.layout, src)
		if err != nil {
			rep.addf("attr %d: cursor: %v", id, err)
			continue
		}
		for _, lt := range live {
			v, defined := lt.tp.Get(aid)
			e, err := cur.MoveTo(lt.tid, lt.pos)
			if err != nil {
				rep.addf("attr %d tid %d: scan: %v", id, lt.tid, err)
				break
			}
			if e.NDF != !defined {
				rep.addf("attr %d tid %d: index NDF=%v but table defined=%v", id, lt.tid, e.NDF, defined)
				continue
			}
			if e.NDF {
				continue
			}
			rep.VectorElems++
			switch st.layout.Kind {
			case model.KindText:
				if len(e.Sigs) != len(v.Strs) {
					rep.addf("attr %d tid %d: %d signatures for %d strings", id, lt.tid, len(e.Sigs), len(v.Strs))
					continue
				}
				for i, s := range v.Strs {
					ref := st.layout.Codec.Encode(s)
					if e.Sigs[i].Len != ref.Len {
						rep.addf("attr %d tid %d sig %d: cL %d, want %d", id, lt.tid, i, e.Sigs[i].Len, ref.Len)
						continue
					}
					for w := range ref.H {
						if e.Sigs[i].H[w] != ref.H[w] {
							rep.addf("attr %d tid %d sig %d: cH mismatch", id, lt.tid, i)
							break
						}
					}
				}
			case model.KindNumeric:
				want := st.quant.Encode(v.Num)
				if e.Code != want {
					rep.addf("attr %d tid %d: code %d, want %d", id, lt.tid, e.Code, want)
				}
				if d := st.quant.MinDist(v.Num, e.Code); d != 0 {
					rep.addf("attr %d tid %d: stored value %v outside its own slice (lb %v)", id, lt.tid, v.Num, d)
				}
			}
		}
	}

	// Pass 3: catalog df statistics against observed counts.
	for id, info := range ix.tbl.Catalog().Attrs() {
		if got := df[model.AttrID(id)]; got != info.DF {
			rep.addf("attr %d (%s): catalog df %d, observed %d", id, info.Name, info.DF, got)
		}
	}
	return rep, nil
}

// AttrReport describes one attribute's index layout for introspection.
type AttrReport struct {
	ID       model.AttrID
	Name     string
	Kind     model.Kind
	ListType vector.ListType
	Alpha    float64
	BitLen   int64
	DF       int64
	Str      int64
	// Codec names the block codec the list is stored under; CodedBlocks is
	// the number of sealed block containers it holds.
	Codec       string
	CodedBlocks int
}

// Attrs returns a layout report per indexed attribute.
func (ix *Index) Attrs() []AttrReport {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	infos := ix.tbl.Catalog().Attrs()
	var out []AttrReport
	for id := range ix.attrs {
		st := &ix.attrs[id]
		if !st.exists {
			continue
		}
		r := AttrReport{
			ID:          model.AttrID(id),
			Kind:        st.layout.Kind,
			ListType:    st.layout.Type,
			Alpha:       st.alpha,
			BitLen:      st.bitLen,
			Codec:       vector.CodecName(st.codecID),
			CodedBlocks: len(st.dir),
		}
		if id < len(infos) {
			r.Name = infos[id].Name
			r.DF = infos[id].DF
			r.Str = infos[id].Str
		}
		out = append(out, r)
	}
	return out
}

// readerSet tracks the ChainBitReaders one scan pass opens so their pinned
// buffer-pool windows are released when the pass ends (a dropped reader
// would hold one page pinned — a leak the iva_pool_pinned_frames gauge
// exists to catch).
type readerSet []*storage.ChainBitReader

func (rs *readerSet) open(ix *Index, c storage.ChainID, bits int64) *storage.ChainBitReader {
	r := storage.NewChainBitReader(ix.segs, c, bits)
	ix.attachVerify(r, c)
	*rs = append(*rs, r)
	return r
}

// close must have a pointer receiver: `defer rds.close()` evaluates the
// receiver at defer time, and a value receiver would snapshot the empty
// slice before any open() appended to it — leaking every pin.
func (rs *readerSet) close() {
	for _, r := range *rs {
		r.Close()
	}
}
