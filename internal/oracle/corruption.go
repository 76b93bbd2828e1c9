package oracle

import (
	"errors"
	"fmt"
	"os"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
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
// vector-list extent of the iVA index, and then
//
//   - under IntegrityDegrade every grid query must return bit-identical
//     top-k to the brute-force reference (degradation routes the damaged
//     segment's tuples to refine, which recomputes exact distances from
//     the table file), and Scrub must report the damage;
//   - under IntegrityStrict every grid query either fails with a
//     *storage.CorruptionError or — if it never touches the damaged
//     segment — returns the identical top-k; Scrub must still report it.
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

	// Pre-generate the grid queries so both phases see the same workload
	// state and reference answers.
	queries := make([]*model.Query, 0, len(combos))
	wants := make([][]model.Result, 0, len(combos))
	for _, c := range combos {
		q, err := h.resolveQuery(h.gen.Query())
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

	// Phase 1: DegradeReads — exact answers through the damage.
	opts := coreOpts()
	if err := h.corruptionPhase("degrade", opts, queries, wants, false); err != nil {
		return err
	}
	// Phase 2: Strict — fail fast, or untouched-and-exact.
	if err := h.closeIVA(); err != nil {
		return err
	}
	opts.Integrity = core.IntegrityStrict
	if err := h.corruptionPhase("strict", opts, queries, wants, true); err != nil {
		return err
	}

	// Revert and verify the store is whole again.
	if err := h.closeIVA(); err != nil {
		return err
	}
	if err := h.iva.ixH.writeByte(off, orig); err != nil {
		return h.failf("corruption: revert byte %d: %v", off, err)
	}
	if err := h.openIVA(coreOpts()); err != nil {
		return err
	}
	rep, err := h.iva.ix.Scrub()
	if err != nil {
		return h.failf("corruption: clean scrub: %v", err)
	}
	if !rep.Clean() {
		return h.failf("corruption: scrub still dirty after revert: %v", rep.Problems)
	}
	h.res.CorruptionChecks++
	return nil
}

// corruptionPhase opens the (already flipped, already closed) iVA files
// under opts and runs the query grid plus a scrub. strict selects the
// Strict-mode acceptance rule.
func (h *harness) corruptionPhase(label string, opts core.Options, queries []*model.Query, wants [][]model.Result, strict bool) error {
	if err := h.openIVA(opts); err != nil {
		return err
	}
	for i, q := range queries {
		c := combos[i]
		ivaM, _, _, _ := h.metricsFor(c)
		for _, par := range parGrid {
			h.iva.ix.SetSearchParallelism(par)
			got, st, err := h.iva.ix.Search(q, ivaM)
			if err != nil {
				if !strict {
					return h.failf("corruption %s %s par=%d: degraded read failed: %v", label, c.name, par, err)
				}
				var ce *storage.CorruptionError
				if !errors.As(err, &ce) {
					return h.failf("corruption %s %s par=%d: non-corruption error: %v", label, c.name, par, err)
				}
				continue
			}
			if err := h.diff(fmt.Sprintf("corruption %s %s par=%d", label, c.name, par), wants[i], got); err != nil {
				return err
			}
			if !strict {
				h.res.DegradedReads += st.DegradedSegments
			}
		}
	}
	rep, err := h.iva.ix.Scrub()
	if err != nil {
		return h.failf("corruption %s scrub: %v", label, err)
	}
	if rep.Clean() {
		return h.failf("corruption %s: scrub missed an injected flip", label)
	}
	return nil
}

// closeIVA releases the iVA engine's files so fault injection (or a mode
// change) can touch the raw devices without cached pages in the way.
func (h *harness) closeIVA() error {
	if err := h.iva.tblH.f.Close(); err != nil {
		return h.failf("corruption: close table: %v", err)
	}
	if err := h.iva.ixH.f.Close(); err != nil {
		return h.failf("corruption: close index: %v", err)
	}
	return nil
}

// openIVA reopens the iVA engine from its (closed) files under opts,
// mirroring reopenOp's sequence.
func (h *harness) openIVA(opts core.Options) error {
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
	ix, err := core.Open(h.iva.ixH.f, tbl, opts)
	if err != nil {
		return h.failf("corruption: index decode: %v", err)
	}
	h.iva.cat, h.iva.tbl, h.iva.ix = cat, tbl, ix
	return nil
}
