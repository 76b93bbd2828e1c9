package oracle

import (
	"fmt"
	"path/filepath"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/invidx"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/scan"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// handle owns one engine file and can survive reopens and rebuild
// generations. In-memory mode keeps the MemDevice across File closes (its
// Close is a no-op); on-disk mode reopens the path.
type handle struct {
	pool *storage.Pool
	dir  string
	base string
	gen  int
	mem  *storage.MemDevice
	f    *storage.File
}

func (hd *handle) path() string {
	name := hd.base
	if hd.gen > 0 {
		name = fmt.Sprintf("%s.g%d", hd.base, hd.gen)
	}
	return filepath.Join(hd.dir, name)
}

func (hd *handle) open() error {
	if hd.dir == "" {
		if hd.mem == nil {
			hd.mem = storage.NewMemDevice()
		}
		hd.f = storage.NewFile(hd.pool, hd.mem)
		return nil
	}
	dev, err := storage.OpenFileDevice(hd.path())
	if err != nil {
		return err
	}
	hd.f = storage.NewFile(hd.pool, dev)
	return nil
}

// file is the open File, or nil for the absent index handle of DST.
func (hd *handle) file() *storage.File {
	if hd == nil {
		return nil
	}
	return hd.f
}

// fresh returns a handle on the next generation's (empty) device, for
// rebuilds: table.Rebuild needs source and destination alive at once.
func (hd *handle) fresh() (*handle, error) {
	nh := &handle{pool: hd.pool, dir: hd.dir, base: hd.base, gen: hd.gen + 1}
	return nh, nh.open()
}

// index is the one surface every engine is driven through.
type index interface {
	// search answers q under m with par filter workers, reporting the
	// workers used and the corrupt segments read past. The baselines ignore
	// par and report 1 worker and no degraded segments.
	search(q *model.Query, m *metric.Metric, par int) (res []model.Result, workers, degraded int, err error)
	// write inserts vals, or replaces the tuple old with them (delete plus
	// fresh-tid insert, §IV-B) when replacing is set.
	write(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error)
	Delete(tid model.TID) error
	Sync() error
}

type ivaIndex struct{ *core.Index }

func (ix ivaIndex) search(q *model.Query, m *metric.Metric, par int) ([]model.Result, int, int, error) {
	ix.SetSearchParallelism(par)
	res, st, err := ix.Search(q, m)
	return res, st.Workers, st.DegradedSegments, err
}

func (ix ivaIndex) write(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	if replacing {
		return ix.Replace(old, vals)
	}
	return ix.Insert(vals)
}

type siiIndex struct{ *invidx.Index }

func (ix siiIndex) search(q *model.Query, m *metric.Metric, _ int) ([]model.Result, int, int, error) {
	res, _, err := ix.Search(q, m)
	return res, 1, 0, err
}

func (ix siiIndex) write(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	if replacing {
		return ix.Update(old, vals)
	}
	return ix.Insert(vals)
}

type dstIndex struct{ *scan.Scanner }

func (s dstIndex) search(q *model.Query, m *metric.Metric, _ int) ([]model.Result, int, int, error) {
	res, _, err := s.Search(q, m)
	return res, 1, 0, err
}

func (s dstIndex) write(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	if replacing {
		return s.Update(old, vals)
	}
	return s.Insert(vals)
}

func (dstIndex) Sync() error { return nil }

// attachFunc puts an index over tbl: built over f when create is set,
// opened from f otherwise. keep names the live tuples, for an engine that
// keeps its tombstones only in memory.
type attachFunc func(tbl *table.Table, f *storage.File, create bool, keep func(model.TID) bool) (index, error)

func attachIVA(opts core.Options) attachFunc {
	return func(tbl *table.Table, f *storage.File, create bool, _ func(model.TID) bool) (index, error) {
		var ix *core.Index
		var err error
		if create {
			ix, err = core.Build(tbl, f, opts)
		} else {
			ix, err = core.Open(f, tbl, opts)
		}
		return ivaIndex{ix}, err
	}
}

func attachSII(tbl *table.Table, f *storage.File, create bool, _ func(model.TID) bool) (index, error) {
	var ix *invidx.Index
	var err error
	if create {
		ix, err = invidx.Build(tbl, f, siiOpts())
	} else {
		ix, err = invidx.Open(f, tbl, siiOpts())
	}
	return siiIndex{ix}, err
}

// attachDST has no index file: on open, the tombstone set is rebuilt from
// the driving workload (here, reference membership).
func attachDST(tbl *table.Table, _ *storage.File, create bool, keep func(model.TID) bool) (index, error) {
	sc, err := scan.New(tbl)
	if err != nil || create {
		return dstIndex{sc}, err
	}
	err = tbl.Scan(func(_ int64, tp *model.Tuple) error {
		if !keep(tp.TID) {
			sc.MarkDeleted(tp.TID)
		}
		return nil
	})
	return dstIndex{sc}, err
}

// engine is one method under test: its files, catalog, table and index,
// and the parallelism grid it is searched over.
type engine struct {
	name      string
	tblH, ixH *handle // ixH is nil for DST
	cat       *table.Catalog
	tbl       *table.Table
	ix        index
	pars      []int
	// mirror marks the packed-codec mirror, whose diffs also count as
	// CodecComparisons.
	mirror bool
	attach attachFunc
}

// handles lists the engine's files.
func (e *engine) handles() []*handle {
	if e.ixH == nil {
		return []*handle{e.tblH}
	}
	return []*handle{e.tblH, e.ixH}
}

// metric builds the engine's metric for one grid point. The ITF closures
// read the engine's table and catalog at call time, so they stay correct
// across reopens and rebuilds (which swap both).
func (e *engine) metric(c combo) *metric.Metric {
	if !c.itf {
		return metric.New(c.comb, metric.Equal{})
	}
	return metric.New(c.comb, metric.NewITF(
		func() int64 { return e.tbl.Live() },
		func(a model.AttrID) int64 {
			info, err := e.cat.Info(a)
			if err != nil {
				return 0
			}
			return info.DF
		}))
}

// addEngine creates an engine's files, an empty table and its index, and
// appends it to the engine list.
func (h *harness) addEngine(e *engine, indexed bool) error {
	newH := func(base string) (*handle, error) {
		hd := &handle{pool: h.pool, dir: h.opt.Dir, base: base}
		return hd, hd.open()
	}
	var err error
	if e.tblH, err = newH(e.name + ".tbl"); err != nil {
		return err
	}
	if indexed {
		if e.ixH, err = newH(e.name + ".idx"); err != nil {
			return err
		}
	}
	e.cat = table.NewCatalog()
	if e.tbl, err = table.New(e.tblH.f, e.cat); err != nil {
		return err
	}
	if e.ix, err = e.attach(e.tbl, e.ixH.file(), true, nil); err != nil {
		return err
	}
	h.engines = append(h.engines, e)
	return nil
}

// rebuild rewrites one engine's table and index, keeping the reference's
// tuples. For the packed mirror this is the moment lists adopt the packed
// codec: core.Build re-runs layout selection over real data.
func (h *harness) rebuild(e *engine) error {
	tblH, err := e.tblH.fresh()
	if err != nil {
		return h.failf("%s rebuild: %v", e.name, err)
	}
	tbl, err := e.tbl.Rebuild(tblH.f, h.refKeep)
	if err != nil {
		return h.failf("%s rebuild: %v", e.name, err)
	}
	var ixH *handle
	if e.ixH != nil {
		if ixH, err = e.ixH.fresh(); err != nil {
			return h.failf("%s rebuild: %v", e.name, err)
		}
	}
	ix, err := e.attach(tbl, ixH.file(), true, h.refKeep)
	if err != nil {
		return h.failf("%s rebuild: %v", e.name, err)
	}
	tbl.PublishStats()
	if err := h.closeFiles(e); err != nil {
		return err
	}
	e.tblH, e.ixH, e.tbl, e.ix = tblH, ixH, tbl, ix
	h.notePackedLists()
	return nil
}

// closeFiles releases an engine's files, for a reopen or so fault injection
// can touch the raw devices without cached pages in the way.
func (h *harness) closeFiles(e *engine) error {
	for _, hd := range e.handles() {
		if err := hd.f.Close(); err != nil {
			return h.failf("%s close %s: %v", e.name, hd.base, err)
		}
	}
	return nil
}

// openFiles reopens an engine from its closed files and a round-tripped
// catalog, as a restart would.
func (h *harness) openFiles(e *engine) error {
	cat, err := table.DecodeCatalog(e.cat.Encode())
	if err != nil {
		return h.failf("%s catalog decode: %v", e.name, err)
	}
	for _, hd := range e.handles() {
		if err := hd.open(); err != nil {
			return h.failf("%s open %s: %v", e.name, hd.base, err)
		}
	}
	tbl, err := table.Open(e.tblH.f, cat)
	if err != nil {
		return h.failf("%s table open: %v", e.name, err)
	}
	ix, err := e.attach(tbl, e.ixH.file(), false, h.refKeep)
	if err != nil {
		return h.failf("%s index open: %v", e.name, err)
	}
	e.cat, e.tbl, e.ix = cat, tbl, ix
	return nil
}
