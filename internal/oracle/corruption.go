package oracle

import (
	"fmt"
	"os"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/table"
)

// readByte/writeByte touch the raw device under a handle, for fault
// injection. The caller must have closed the handle's File first so no
// cached page masks (or later overwrites) the flip.
func (hd *handle) readByte(off int64) (byte, error) {
	var b [1]byte
	if hd.dir == "" {
		_, err := hd.mem.ReadAt(b[:], off)
		return b[0], err
	}
	f, err := os.Open(hd.path())
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, err = f.ReadAt(b[:], off)
	return b[0], err
}

func (hd *handle) writeByte(off int64, v byte) error {
	if hd.dir == "" {
		_, err := hd.mem.WriteAt([]byte{v}, off)
		return err
	}
	f, err := os.OpenFile(hd.path(), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{v}, off); err != nil {
		return err
	}
	return f.Sync()
}

// splitmix64 is the seeded choice generator for the corruption step —
// deterministic from the workload seed, so every failure reproduces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// corruptionSweep closes a run by proving the end-to-end corruption
// contract on real data: one seeded bit is flipped inside a committed
// vector-list extent of the iVA index, and then every grid query must return
// bit-identical top-k to the brute-force reference (degradation routes the
// damaged segment's tuples to refine, which recomputes exact distances from
// the table file), and Scrub must report the damage.
//
// The flip is then reverted and the index reopened clean.
func (h *harness) corruptionSweep() error {
	if err := h.syncAll(); err != nil {
		return err
	}
	extents := h.iva.ix.VectorExtents()
	if len(extents) == 0 {
		return nil // nothing committed to corrupt (degenerate run)
	}
	r := splitmix64(h.opt.Seed)
	ext := extents[r%uint64(len(extents))]
	off := ext.Offset + int64(splitmix64(r)%uint64(ext.Len))
	bit := uint(splitmix64(r+1) % 8)

	// Pre-generate the grid queries and their reference answers while the
	// index is still whole.
	queries := make([]*model.Query, 0, len(combos))
	wants := make([][]model.Result, 0, len(combos))
	for _, c := range combos {
		q, err := h.nextQuery()
		if err != nil {
			return err
		}
		_, _, _, refM := h.metricsFor(c)
		queries = append(queries, q)
		wants = append(wants, h.bruteForce(q, refM))
	}

	if err := h.closeIVA(); err != nil {
		return err
	}
	orig, err := h.iva.ixH.readByte(off)
	if err != nil {
		return h.failf("corruption: read byte %d: %v", off, err)
	}
	if err := h.iva.ixH.writeByte(off, orig^(1<<bit)); err != nil {
		return h.failf("corruption: flip byte %d: %v", off, err)
	}

	// Exact answers through the damage.
	if err := h.openIVA(); err != nil {
		return err
	}
	for i, q := range queries {
		c := combos[i]
		ivaM, _, _, _ := h.metricsFor(c)
		for _, par := range parGrid {
			h.iva.ix.SetSearchParallelism(par)
			got, st, err := h.iva.ix.Search(q, ivaM)
			if err != nil {
				return h.failf("corruption %s par=%d: degraded read failed: %v", c.name, par, err)
			}
			if err := h.diff(fmt.Sprintf("corruption %s par=%d", c.name, par), wants[i], got); err != nil {
				return err
			}
			h.res.DegradedReads += st.DegradedSegments
		}
	}
	rep, err := h.iva.ix.Scrub()
	if err != nil {
		return h.failf("corruption scrub: %v", err)
	}
	if rep.Clean() {
		return h.failf("corruption: scrub missed an injected flip")
	}

	// Revert and verify the store is whole again.
	if err := h.closeIVA(); err != nil {
		return err
	}
	if err := h.iva.ixH.writeByte(off, orig); err != nil {
		return h.failf("corruption: revert byte %d: %v", off, err)
	}
	if err := h.openIVA(); err != nil {
		return err
	}
	rep, err = h.iva.ix.Scrub()
	if err != nil {
		return h.failf("corruption: clean scrub: %v", err)
	}
	if !rep.Clean() {
		return h.failf("corruption: scrub still dirty after revert: %v", rep.Problems)
	}
	h.res.CorruptionChecks++
	return nil
}

// closeIVA releases the iVA engine's files so fault injection can touch the
// raw devices without cached pages in the way.
func (h *harness) closeIVA() error {
	if err := h.iva.tblH.f.Close(); err != nil {
		return h.failf("corruption: close table: %v", err)
	}
	if err := h.iva.ixH.f.Close(); err != nil {
		return h.failf("corruption: close index: %v", err)
	}
	return nil
}

// openIVA reopens the iVA engine from its (closed) files, mirroring
// reopenOp's sequence.
func (h *harness) openIVA() error {
	cat, err := table.DecodeCatalog(h.iva.cat.Encode())
	if err != nil {
		return h.failf("corruption: catalog decode: %v", err)
	}
	if err := h.iva.tblH.open(); err != nil {
		return h.failf("corruption: table open: %v", err)
	}
	if err := h.iva.ixH.open(); err != nil {
		return h.failf("corruption: index open: %v", err)
	}
	tbl, err := table.Open(h.iva.tblH.f, cat)
	if err != nil {
		return h.failf("corruption: table decode: %v", err)
	}
	ix, err := core.Open(h.iva.ixH.f, tbl, coreOpts())
	if err != nil {
		return h.failf("corruption: index decode: %v", err)
	}
	h.iva.cat, h.iva.tbl, h.iva.ix = cat, tbl, ix
	return nil
}
