// Package oracle is the differential correctness harness: it replays one
// seeded workload (rows and queries from internal/dataset's correctness
// mix) simultaneously against the three
// engines of the paper's evaluation — the iVA-file (internal/core), the
// sparse inverted index SII (internal/invidx) and the direct scan DST
// (internal/scan) — plus a brute-force in-memory reference, and fails on the
// first divergence.
//
// Because the iVA-file's estimates are true lower bounds and every engine
// breaks distance ties by tid, all four must return *identical* top-k lists
// (same tids, bit-equal distances) for every query, every metric
// (L1/L2/L∞ × EQU/ITF), and every SearchParallelism. On top of the exact
// checks the harness asserts metamorphic invariants: growing k preserves the
// k-prefix, an insert→delete pair is a no-op for search results, results
// survive sync+reopen, and ExplainSearch's per-term tightness never exceeds
// 1 (an estimate above the true difference would break the no-false-negative
// guarantee).
//
// Every failure message carries the seed and op number, so any bug found by
// the soak reproduces from one line:
//
//	go test ./internal/oracle -run TestDifferential -oracle.seed=N -oracle.ops=M
package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/invidx"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/scan"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// Options configure one oracle run.
type Options struct {
	// Seed selects the workload; equal seeds replay identical runs.
	Seed uint64
	// Ops is the schedule length (0 = 10000).
	Ops int
	// Dir, when non-empty, backs every engine with real files under it;
	// empty runs fully in memory.
	Dir string
	// CacheBytes sizes the iVA engine's buffer pool (0 = 8 MiB). A few-page
	// pool makes the soak run entirely through CLOCK eviction and pinned-
	// window reloads, which the roomy default never touches.
	CacheBytes int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
	// CodecMirror, when true, runs a fourth engine: a second iVA-file built
	// with the packed block codec (codec 1). It sees every
	// mutation, sync, reopen, and rebuild the raw iVA engine sees, and its
	// answers must stay byte-identical across the whole parallelism grid —
	// the codec differential.
	CodecMirror bool
}

// Result counts what a run exercised.
type Result struct {
	Ops         int
	Searches    int
	Comparisons int // engine-result lists compared against the reference
	Inserts     int
	Updates     int
	Deletes     int
	Syncs       int
	Reopens     int
	Rebuilds    int // forced + overflow-triggered, summed over engines
	RoundTrips  int
	MaxLive     int
	// CorruptionChecks counts completed seeded bit-flip sweeps (0 or 1 per
	// run); DegradedReads sums the corrupt segments queries degraded past
	// during them (0 when the seeded queries never touched the flipped
	// attribute — detection then came from Scrub).
	CorruptionChecks int
	DegradedReads    int
	// CodecComparisons counts result lists from the packed-codec mirror
	// engine diffed against the reference; PackedLists is the largest number
	// of vector lists observed stored under the packed codec on the mirror
	// (fresh attributes stay raw until a rebuild re-runs layout selection,
	// so this only rises once the workload has forced a rebuild).
	CodecComparisons int
	PackedLists      int
}

// combo is one point of the metric grid.
type combo struct {
	name string
	comb metric.Combiner
	itf  bool
}

var combos = []combo{
	{"L1/EQU", metric.L1{}, false},
	{"L2/EQU", metric.L2{}, false},
	{"Linf/EQU", metric.LInf{}, false},
	{"L1/ITF", metric.L1{}, true},
	{"L2/ITF", metric.L2{}, true},
	{"Linf/ITF", metric.LInf{}, true},
}

// parGrid is the SearchParallelism sweep for the iVA engine: sequential,
// two workers, and GOMAXPROCS (0).
var parGrid = []int{1, 2, 0}

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

func (hd *handle) reopen() error {
	if err := hd.f.Close(); err != nil {
		return err
	}
	return hd.open()
}

// fresh returns a handle on the next generation's (empty) device, for
// rebuilds: table.Rebuild needs source and destination alive at once.
func (hd *handle) fresh() (*handle, error) {
	nh := &handle{pool: hd.pool, dir: hd.dir, base: hd.base, gen: hd.gen + 1}
	return nh, nh.open()
}

// engine is the per-method state; ix/sii/sc discriminate the kind.
type ivaEngine struct {
	tblH, ixH *handle
	cat       *table.Catalog
	tbl       *table.Table
	ix        *core.Index
}

type siiEngine struct {
	tblH, ixH *handle
	cat       *table.Catalog
	tbl       *table.Table
	ix        *invidx.Index
}

type dstEngine struct {
	tblH *handle
	cat  *table.Catalog
	tbl  *table.Table
	sc   *scan.Scanner
}

type harness struct {
	opt Options
	// rng draws the schedule, victims and queries; rows are tuples
	// 0, 1, 2, ... of data, which derives each from the seed and its index.
	rng  *rand.Rand
	data *dataset.Generator
	rows int

	pool *storage.Pool
	iva  ivaEngine
	sii  siiEngine
	dst  dstEngine
	// iva2 is the packed-codec mirror engine (Options.CodecMirror); nil when
	// the mirror is off.
	iva2 *ivaEngine

	// In-memory reference: the ground truth every engine is diffed against.
	ref      map[model.TID]*model.Tuple
	liveTIDs []model.TID // deterministic victim order (swap-remove)
	refDF    map[model.AttrID]int64

	metricIdx int
	opIndex   int
	curOp     opKind
	res       Result
}

// failf wraps a divergence with the one-line repro recipe.
func (h *harness) failf(format string, args ...interface{}) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("oracle: seed=%d op=%d(%s): %s\n  repro: go test ./internal/oracle -run TestDifferential -oracle.seed=%d -oracle.ops=%d",
		h.opt.Seed, h.opIndex, h.curOp, msg, h.opt.Seed, h.opt.Ops)
}

// coreOpts deliberately picks small limits: CheckpointEvery 64 engages the
// striped parallel plan after ~128 entries, and TIDHeadroom 256 keeps the
// packed tid width tight. It does not make ErrNeedsRebuild overflows happen:
// the width rounds up to a power of two and the schedule's forced rebuilds
// re-derive it every ~40 inserts, so counted runs overflow 0 times.
func coreOpts() core.Options {
	return core.Options{CheckpointEvery: 64, TIDHeadroom: 256}
}

func siiOpts() invidx.Options { return invidx.Options{TIDHeadroom: 256} }

// mirrorOpts is coreOpts with the packed block codec switched on.
func mirrorOpts() core.Options {
	o := coreOpts()
	o.Codec = 1
	return o
}

// Run replays opt.Ops workload steps and returns the first divergence as an
// error carrying its repro seed.
func Run(opt Options) (Result, error) {
	if opt.Ops <= 0 {
		opt.Ops = 10000
	}
	h, err := newHarness(opt)
	if err != nil {
		return Result{}, err
	}
	defer h.close()
	for h.opIndex = 0; h.opIndex < opt.Ops; h.opIndex++ {
		op := nextOp(h.rng, len(h.liveTIDs))
		if err := h.step(op); err != nil {
			return h.res, err
		}
		if n := len(h.liveTIDs); n > h.res.MaxLive {
			h.res.MaxLive = n
		}
		h.res.Ops++
		if h.opt.Logf != nil && (h.opIndex+1)%2000 == 0 {
			h.opt.Logf("oracle: %d/%d ops, live=%d, searches=%d",
				h.opIndex+1, opt.Ops, len(h.liveTIDs), h.res.Searches)
		}
	}
	if err := h.finalSweep(); err != nil {
		return h.res, err
	}
	return h.res, nil
}

func newHarness(opt Options) (*harness, error) {
	cache := opt.CacheBytes
	if cache <= 0 {
		cache = 8 << 20
	}
	h := &harness{
		opt:   opt,
		rng:   rand.New(rand.NewSource(int64(opt.Seed))),
		data:  dataset.New(dataset.MixConfig(int64(opt.Seed))),
		pool:  storage.NewPool(0, cache),
		ref:   make(map[model.TID]*model.Tuple),
		refDF: make(map[model.AttrID]int64),
	}
	newH := func(base string) (*handle, error) {
		hd := &handle{pool: h.pool, dir: opt.Dir, base: base}
		return hd, hd.open()
	}
	var err error
	if h.iva.tblH, err = newH("iva.tbl"); err != nil {
		return nil, err
	}
	if h.iva.ixH, err = newH("iva.idx"); err != nil {
		return nil, err
	}
	if h.sii.tblH, err = newH("sii.tbl"); err != nil {
		return nil, err
	}
	if h.sii.ixH, err = newH("sii.idx"); err != nil {
		return nil, err
	}
	if h.dst.tblH, err = newH("dst.tbl"); err != nil {
		return nil, err
	}
	h.iva.cat, h.sii.cat, h.dst.cat = table.NewCatalog(), table.NewCatalog(), table.NewCatalog()
	if h.iva.tbl, err = table.New(h.iva.tblH.f, h.iva.cat); err != nil {
		return nil, err
	}
	if h.sii.tbl, err = table.New(h.sii.tblH.f, h.sii.cat); err != nil {
		return nil, err
	}
	if h.dst.tbl, err = table.New(h.dst.tblH.f, h.dst.cat); err != nil {
		return nil, err
	}
	if h.iva.ix, err = core.Build(h.iva.tbl, h.iva.ixH.f, coreOpts()); err != nil {
		return nil, err
	}
	if h.sii.ix, err = invidx.Build(h.sii.tbl, h.sii.ixH.f, siiOpts()); err != nil {
		return nil, err
	}
	if h.dst.sc, err = scan.New(h.dst.tbl); err != nil {
		return nil, err
	}
	if opt.CodecMirror {
		h.iva2 = &ivaEngine{cat: table.NewCatalog()}
		if h.iva2.tblH, err = newH("iva2.tbl"); err != nil {
			return nil, err
		}
		if h.iva2.ixH, err = newH("iva2.idx"); err != nil {
			return nil, err
		}
		if h.iva2.tbl, err = table.New(h.iva2.tblH.f, h.iva2.cat); err != nil {
			return nil, err
		}
		if h.iva2.ix, err = core.Build(h.iva2.tbl, h.iva2.ixH.f, mirrorOpts()); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) close() {
	handles := []*handle{h.iva.tblH, h.iva.ixH, h.sii.tblH, h.sii.ixH, h.dst.tblH}
	if h.iva2 != nil {
		handles = append(handles, h.iva2.tblH, h.iva2.ixH)
	}
	for _, hd := range handles {
		if hd != nil && hd.f != nil {
			hd.f.Close()
		}
	}
}

// attrID registers name on all three catalogs and checks the assigned ids
// agree — they must, since every engine sees the identical append sequence.
func (h *harness) attrID(name string, kind model.Kind) (model.AttrID, error) {
	a, err := h.iva.cat.AddAttr(name, kind)
	if err != nil {
		return 0, h.failf("iva catalog: %v", err)
	}
	b, err := h.sii.cat.AddAttr(name, kind)
	if err != nil {
		return 0, h.failf("sii catalog: %v", err)
	}
	c, err := h.dst.cat.AddAttr(name, kind)
	if err != nil {
		return 0, h.failf("dst catalog: %v", err)
	}
	if a != b || a != c {
		return 0, h.failf("catalog id divergence for %q: iva=%d sii=%d dst=%d", name, a, b, c)
	}
	if h.iva2 != nil {
		d, err := h.iva2.cat.AddAttr(name, kind)
		if err != nil {
			return 0, h.failf("iva2 catalog: %v", err)
		}
		if d != a {
			return 0, h.failf("catalog id divergence for %q: iva=%d iva2=%d", name, a, d)
		}
	}
	return a, nil
}

// nextRow generates the next tuple and registers the attributes it defines,
// in rank order, on every catalog.
func (h *harness) nextRow() (map[model.AttrID]model.Value, error) {
	row := h.data.Values(h.rows)
	h.rows++
	vals := make(map[model.AttrID]model.Value, len(row))
	for _, r := range dataset.SortedRanks(row) {
		id, err := h.attrID(h.data.AttrName(r), row[r].Kind)
		if err != nil {
			return nil, err
		}
		vals[id] = row[r]
	}
	return vals, nil
}

// nextQuery draws the next query of the adversarial mix over the rows
// generated so far, registering its attributes (ghosts included).
func (h *harness) nextQuery() (*model.Query, error) {
	spec := h.data.MixQuery(h.rng, h.rows)
	q := &model.Query{K: spec.K}
	for _, t := range spec.Terms {
		id, err := h.attrID(t.Name, t.Kind)
		if err != nil {
			return nil, err
		}
		q.Terms = append(q.Terms, model.QueryTerm{
			Attr: id, Kind: t.Kind, Num: t.Num, Str: t.Str, Weight: t.Weight,
		})
	}
	return q, nil
}

// metricsFor builds the four metric instances of one grid point. The ITF
// closures read the harness fields at call time, so the same logic stays
// correct across reopens and rebuilds (which swap tbl/cat pointers).
func (h *harness) metricsFor(c combo) (iva, sii, dst, ref *metric.Metric) {
	if !c.itf {
		m := metric.New(c.comb, metric.Equal{})
		return m, m, m, m
	}
	catDF := func(cat func() *table.Catalog) func(model.AttrID) int64 {
		return func(a model.AttrID) int64 {
			info, err := cat().Info(a)
			if err != nil {
				return 0
			}
			return info.DF
		}
	}
	iva = metric.New(c.comb, metric.NewITF(
		func() int64 { return h.iva.tbl.Live() },
		catDF(func() *table.Catalog { return h.iva.cat })))
	sii = metric.New(c.comb, metric.NewITF(
		func() int64 { return h.sii.tbl.Live() },
		catDF(func() *table.Catalog { return h.sii.cat })))
	dst = metric.New(c.comb, metric.NewITF(
		func() int64 { return h.dst.tbl.Live() },
		catDF(func() *table.Catalog { return h.dst.cat })))
	ref = metric.New(c.comb, metric.NewITF(
		func() int64 { return int64(len(h.ref)) },
		func(a model.AttrID) int64 { return h.refDF[a] }))
	return iva, sii, dst, ref
}

// mirrorMetric builds the packed mirror's metric for one grid point; its ITF
// closures read the mirror's own table and catalog so the statistics match
// across reopens and rebuilds.
func (h *harness) mirrorMetric(c combo) *metric.Metric {
	if !c.itf {
		return metric.New(c.comb, metric.Equal{})
	}
	return metric.New(c.comb, metric.NewITF(
		func() int64 { return h.iva2.tbl.Live() },
		func(a model.AttrID) int64 {
			info, err := h.iva2.cat.Info(a)
			if err != nil {
				return 0
			}
			return info.DF
		}))
}

// mirrorDiff runs one query against the packed mirror across the whole
// parallelism grid and demands byte-identical answers.
func (h *harness) mirrorDiff(label string, q *model.Query, c combo, want []model.Result) error {
	m := h.mirrorMetric(c)
	for _, par := range parGrid {
		h.iva2.ix.SetSearchParallelism(par)
		got, _, err := h.iva2.ix.Search(q, m)
		if err != nil {
			return h.failf("%s packed search par=%d: %v", label, par, err)
		}
		h.res.CodecComparisons++
		if err := h.diff(fmt.Sprintf("%s packed %s par=%d", label, c.name, par), want, got); err != nil {
			return err
		}
	}
	return nil
}

// nextCombo cycles the metric grid deterministically.
func (h *harness) nextCombo() combo {
	c := combos[h.metricIdx%len(combos)]
	h.metricIdx++
	return c
}

// bruteForce computes the exact answer: every live tuple's distance, sorted
// by the lexicographic (dist, tid) total order, truncated to K.
func (h *harness) bruteForce(q *model.Query, m *metric.Metric) []model.Result {
	out := make([]model.Result, 0, len(h.liveTIDs))
	for _, tid := range h.liveTIDs {
		out = append(out, model.Result{TID: tid, Dist: m.TupleDistance(q, h.ref[tid])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].TID < out[j].TID
	})
	if len(out) > q.K {
		out = out[:q.K]
	}
	return out
}

// diff demands exact equality: same tids, bit-equal distances.
func (h *harness) diff(label string, want, got []model.Result) error {
	h.res.Comparisons++
	if len(want) != len(got) {
		return h.failf("%s: got %d results, want %d\n  got:  %v\n  want: %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].TID != got[i].TID || want[i].Dist != got[i].Dist {
			return h.failf("%s: result %d = (tid %d, %v), want (tid %d, %v)\n  got:  %v\n  want: %v",
				label, i, got[i].TID, got[i].Dist, want[i].TID, want[i].Dist, got, want)
		}
	}
	return nil
}

func (h *harness) step(op opKind) error {
	h.curOp = op
	switch op {
	case opInsert:
		return h.insertOp()
	case opUpdate:
		return h.updateOp()
	case opDelete:
		return h.deleteOp()
	case opSearch:
		return h.searchOp()
	case opSync:
		h.res.Syncs++
		return h.syncAll()
	case opReopen:
		return h.reopenOp()
	case opRebuild:
		h.res.Rebuilds += 3
		if err := h.rebuildIVA(); err != nil {
			return err
		}
		if err := h.rebuildSII(); err != nil {
			return err
		}
		if err := h.rebuildDST(); err != nil {
			return err
		}
		if h.iva2 != nil {
			h.res.Rebuilds++
			return h.rebuildIVA2()
		}
		return nil
	case opRoundTrip:
		return h.roundTripOp()
	default:
		return h.failf("unknown op %v", op)
	}
}

// --- mutation ops ------------------------------------------------------

// insertTuple pushes vals into all engines and the reference.
func (h *harness) insertTuple(vals map[model.AttrID]model.Value) (model.TID, error) {
	return h.writeTuple(vals, 0, false)
}

// ivaWrite puts vals into one iVA-file engine — in place of the tuple old when
// replacing is set — the way Store does: an overflowed packed width (reported
// with nothing written) is answered by one rebuild and one more try. The
// rebuild keeps the reference's tuples, so old, which left the reference
// first, is gone by then and the second try is a plain insert.
func (h *harness) ivaWrite(e *ivaEngine, name string, rebuild func() error, vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	var tid model.TID
	var err error
	if replacing {
		tid, err = e.ix.Replace(old, vals)
	} else {
		tid, err = e.ix.Insert(vals)
	}
	if errors.Is(err, core.ErrNeedsRebuild) {
		h.res.Rebuilds++
		if err := rebuild(); err != nil {
			return 0, err
		}
		tid, err = e.ix.Insert(vals)
	}
	if err != nil {
		return 0, h.failf("%s write (replacing=%v %d): %v", name, replacing, old, err)
	}
	return tid, nil
}

// writeTuple pushes vals into all engines and the reference — as an insert, or
// as the engines' update of the tuple old (delete + fresh-tid insert, §IV-B),
// which the caller has dropped from the reference — transparently rebuilding
// an engine whose packed tid width overflows (the SII reports that with the
// delete half applied). The engines must assign the same tid: they see
// identical append sequences and rebuilds preserve nextTID.
func (h *harness) writeTuple(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	tidIVA, err := h.ivaWrite(&h.iva, "iva", h.rebuildIVA, vals, old, replacing)
	if err != nil {
		return 0, err
	}
	var tidSII, tidDST model.TID
	if replacing {
		tidSII, err = h.sii.ix.Update(old, vals)
	} else {
		tidSII, err = h.sii.ix.Insert(vals)
	}
	if errors.Is(err, invidx.ErrNeedsRebuild) {
		h.res.Rebuilds++
		if err = h.rebuildSII(); err != nil {
			return 0, err
		}
		tidSII, err = h.sii.ix.Insert(vals)
	}
	if err != nil {
		return 0, h.failf("sii write (replacing=%v %d): %v", replacing, old, err)
	}
	if replacing {
		tidDST, err = h.dst.sc.Update(old, vals)
	} else {
		tidDST, err = h.dst.sc.Insert(vals)
	}
	if err != nil {
		return 0, h.failf("dst write (replacing=%v %d): %v", replacing, old, err)
	}
	if tidIVA != tidSII || tidIVA != tidDST {
		return 0, h.failf("tid divergence: iva=%d sii=%d dst=%d", tidIVA, tidSII, tidDST)
	}
	if h.iva2 != nil {
		tid2, err := h.ivaWrite(h.iva2, "iva2", h.rebuildIVA2, vals, old, replacing)
		if err != nil {
			return 0, err
		}
		if tid2 != tidIVA {
			return 0, h.failf("codec mirror tid divergence: iva=%d iva2=%d", tidIVA, tid2)
		}
	}
	h.ref[tidIVA] = &model.Tuple{TID: tidIVA, Values: vals}
	h.liveTIDs = append(h.liveTIDs, tidIVA)
	for a := range vals {
		h.refDF[a]++
	}
	return tidIVA, nil
}

// dropRef removes liveTIDs[i] from the reference *before* the engines
// tombstone it, so that a rebuild triggered mid-operation (whose keep set is
// ref membership) cannot resurrect the victim.
func (h *harness) dropRef(i int) model.TID {
	tid := h.liveTIDs[i]
	for a := range h.ref[tid].Values {
		h.refDF[a]--
	}
	delete(h.ref, tid)
	h.liveTIDs[i] = h.liveTIDs[len(h.liveTIDs)-1]
	h.liveTIDs = h.liveTIDs[:len(h.liveTIDs)-1]
	return tid
}

func (h *harness) deleteTuple(tid model.TID) error {
	if err := h.iva.ix.Delete(tid); err != nil {
		return h.failf("iva delete %d: %v", tid, err)
	}
	if err := h.sii.ix.Delete(tid); err != nil {
		return h.failf("sii delete %d: %v", tid, err)
	}
	if err := h.dst.sc.Delete(tid); err != nil {
		return h.failf("dst delete %d: %v", tid, err)
	}
	if h.iva2 != nil {
		if err := h.iva2.ix.Delete(tid); err != nil {
			return h.failf("iva2 delete %d: %v", tid, err)
		}
	}
	return nil
}

func (h *harness) insertOp() error {
	vals, err := h.nextRow()
	if err != nil {
		return err
	}
	if _, err := h.insertTuple(vals); err != nil {
		return err
	}
	h.res.Inserts++
	return nil
}

func (h *harness) deleteOp() error {
	tid := h.dropRef(h.rng.Intn(len(h.liveTIDs)))
	if err := h.deleteTuple(tid); err != nil {
		return err
	}
	h.res.Deletes++
	return nil
}

// updateOp exercises the engines' update: the victim leaves the reference,
// then every engine replaces it.
func (h *harness) updateOp() error {
	old := h.dropRef(h.rng.Intn(len(h.liveTIDs)))
	vals, err := h.nextRow()
	if err != nil {
		return err
	}
	if _, err := h.writeTuple(vals, old, true); err != nil {
		return err
	}
	h.res.Updates++
	return nil
}

// --- rebuilds ----------------------------------------------------------

func (h *harness) refKeep(tid model.TID) bool {
	_, ok := h.ref[tid]
	return ok
}

// rebuildEngine rewrites one iVA-file engine's table and index, keeping the
// reference's tuples.
func (h *harness) rebuildEngine(e *ivaEngine, name string, opts core.Options) error {
	newTblH, err := e.tblH.fresh()
	if err != nil {
		return h.failf("%s rebuild: %v", name, err)
	}
	newTbl, err := e.tbl.Rebuild(newTblH.f, h.refKeep)
	if err != nil {
		return h.failf("%s rebuild: %v", name, err)
	}
	newIxH, err := e.ixH.fresh()
	if err != nil {
		return h.failf("%s rebuild: %v", name, err)
	}
	newIx, err := core.Build(newTbl, newIxH.f, opts)
	if err != nil {
		return h.failf("%s rebuild: %v", name, err)
	}
	newTbl.PublishStats()
	e.tblH.f.Close()
	e.ixH.f.Close()
	e.tblH, e.ixH = newTblH, newIxH
	e.tbl, e.ix = newTbl, newIx
	return nil
}

func (h *harness) rebuildIVA() error { return h.rebuildEngine(&h.iva, "iva", coreOpts()) }

func (h *harness) rebuildSII() error {
	newTblH, err := h.sii.tblH.fresh()
	if err != nil {
		return h.failf("sii rebuild: %v", err)
	}
	newTbl, err := h.sii.tbl.Rebuild(newTblH.f, h.refKeep)
	if err != nil {
		return h.failf("sii rebuild: %v", err)
	}
	newIxH, err := h.sii.ixH.fresh()
	if err != nil {
		return h.failf("sii rebuild: %v", err)
	}
	newIx, err := invidx.Build(newTbl, newIxH.f, siiOpts())
	if err != nil {
		return h.failf("sii rebuild: %v", err)
	}
	newTbl.PublishStats()
	h.sii.tblH.f.Close()
	h.sii.ixH.f.Close()
	h.sii.tblH, h.sii.ixH = newTblH, newIxH
	h.sii.tbl, h.sii.ix = newTbl, newIx
	return nil
}

// rebuildIVA2 regenerates the packed mirror. Rebuilds are where the mirror
// earns its keep: core.Build re-runs layout selection over real data, so
// this is the moment lists actually adopt the packed codec.
func (h *harness) rebuildIVA2() error {
	if err := h.rebuildEngine(h.iva2, "iva2", mirrorOpts()); err != nil {
		return err
	}
	h.notePackedLists()
	return nil
}

// notePackedLists tracks the high-water count of packed lists on the mirror,
// so the test entry can assert the differential was not vacuous.
func (h *harness) notePackedLists() {
	packed := 0
	for _, r := range h.iva2.ix.Attrs() {
		if r.CodedBlocks > 0 {
			packed++
		}
	}
	if packed > h.res.PackedLists {
		h.res.PackedLists = packed
	}
}

func (h *harness) rebuildDST() error {
	newTblH, err := h.dst.tblH.fresh()
	if err != nil {
		return h.failf("dst rebuild: %v", err)
	}
	newTbl, err := h.dst.tbl.Rebuild(newTblH.f, h.refKeep)
	if err != nil {
		return h.failf("dst rebuild: %v", err)
	}
	newSc, err := scan.New(newTbl)
	if err != nil {
		return h.failf("dst rebuild: %v", err)
	}
	newTbl.PublishStats()
	h.dst.tblH.f.Close()
	h.dst.tblH, h.dst.tbl, h.dst.sc = newTblH, newTbl, newSc
	return nil
}

// --- durability ops ----------------------------------------------------

func (h *harness) syncAll() error {
	for _, s := range []struct {
		name string
		fn   func() error
	}{
		{"iva table", h.iva.tbl.Sync}, {"iva index", h.iva.ix.Sync},
		{"sii table", h.sii.tbl.Sync}, {"sii index", h.sii.ix.Sync},
		{"dst table", h.dst.tbl.Sync},
	} {
		if err := s.fn(); err != nil {
			return h.failf("%s sync: %v", s.name, err)
		}
	}
	if h.iva2 != nil {
		if err := h.iva2.tbl.Sync(); err != nil {
			return h.failf("iva2 table sync: %v", err)
		}
		if err := h.iva2.ix.Sync(); err != nil {
			return h.failf("iva2 index sync: %v", err)
		}
	}
	return nil
}

// reopenOp asserts the results-invariant-under-reopen metamorphic property:
// search, sync, close and reopen every engine from its (synced) files, search
// again — the answers must be identical, and the reopened iVA-file must pass
// its full integrity check.
func (h *harness) reopenOp() error {
	q, err := h.nextQuery()
	if err != nil {
		return err
	}
	c := h.nextCombo()
	ivaM, siiM, dstM, refM := h.metricsFor(c)
	want := h.bruteForce(q, refM)
	h.iva.ix.SetSearchParallelism(0)
	pre, _, err := h.iva.ix.Search(q, ivaM)
	if err != nil {
		return h.failf("iva pre-reopen search: %v", err)
	}
	if err := h.diff("iva pre-reopen ("+c.name+")", want, pre); err != nil {
		return err
	}
	if err := h.syncAll(); err != nil {
		return err
	}

	// iVA-file.
	cat, err := table.DecodeCatalog(h.iva.cat.Encode())
	if err != nil {
		return h.failf("iva catalog decode: %v", err)
	}
	if err := h.iva.tblH.reopen(); err != nil {
		return h.failf("iva table reopen: %v", err)
	}
	if err := h.iva.ixH.reopen(); err != nil {
		return h.failf("iva index reopen: %v", err)
	}
	tbl, err := table.Open(h.iva.tblH.f, cat)
	if err != nil {
		return h.failf("iva table open: %v", err)
	}
	ix, err := core.Open(h.iva.ixH.f, tbl, coreOpts())
	if err != nil {
		return h.failf("iva index open: %v", err)
	}
	h.iva.cat, h.iva.tbl, h.iva.ix = cat, tbl, ix

	// SII.
	if cat, err = table.DecodeCatalog(h.sii.cat.Encode()); err != nil {
		return h.failf("sii catalog decode: %v", err)
	}
	if err := h.sii.tblH.reopen(); err != nil {
		return h.failf("sii table reopen: %v", err)
	}
	if err := h.sii.ixH.reopen(); err != nil {
		return h.failf("sii index reopen: %v", err)
	}
	if tbl, err = table.Open(h.sii.tblH.f, cat); err != nil {
		return h.failf("sii table open: %v", err)
	}
	six, err := invidx.Open(h.sii.ixH.f, tbl, siiOpts())
	if err != nil {
		return h.failf("sii index open: %v", err)
	}
	h.sii.cat, h.sii.tbl, h.sii.ix = cat, tbl, six

	// DST: no index file; the tombstone set is rebuilt from the driving
	// workload (here, reference membership).
	if cat, err = table.DecodeCatalog(h.dst.cat.Encode()); err != nil {
		return h.failf("dst catalog decode: %v", err)
	}
	if err := h.dst.tblH.reopen(); err != nil {
		return h.failf("dst table reopen: %v", err)
	}
	if tbl, err = table.Open(h.dst.tblH.f, cat); err != nil {
		return h.failf("dst table open: %v", err)
	}
	sc, err := scan.New(tbl)
	if err != nil {
		return h.failf("dst scanner: %v", err)
	}
	err = tbl.Scan(func(_ int64, tp *model.Tuple) error {
		if _, live := h.ref[tp.TID]; !live {
			sc.MarkDeleted(tp.TID)
		}
		return nil
	})
	if err != nil {
		return h.failf("dst tombstone rebuild: %v", err)
	}
	h.dst.cat, h.dst.tbl, h.dst.sc = cat, tbl, sc

	// Post-reopen: identical answers from every engine, clean fsck.
	ivaM, siiM, dstM, _ = h.metricsFor(c)
	h.iva.ix.SetSearchParallelism(0)
	post, _, err := h.iva.ix.Search(q, ivaM)
	if err != nil {
		return h.failf("iva post-reopen search: %v", err)
	}
	if err := h.diff("iva post-reopen ("+c.name+")", want, post); err != nil {
		return err
	}
	siiRes, _, err := h.sii.ix.Search(q, siiM)
	if err != nil {
		return h.failf("sii post-reopen search: %v", err)
	}
	if err := h.diff("sii post-reopen ("+c.name+")", want, siiRes); err != nil {
		return err
	}
	dstRes, _, err := h.dst.sc.Search(q, dstM)
	if err != nil {
		return h.failf("dst post-reopen search: %v", err)
	}
	if err := h.diff("dst post-reopen ("+c.name+")", want, dstRes); err != nil {
		return err
	}
	rep, err := h.iva.ix.Check()
	if err != nil {
		return h.failf("iva check: %v", err)
	}
	if !rep.Ok() {
		return h.failf("iva check after reopen: %v", rep.Problems)
	}

	// Packed mirror: same reopen, same invariant. The open path — codec
	// bytes in the attribute elements, the block-directory walk — must
	// reproduce byte-identical answers and a clean fsck.
	if h.iva2 != nil {
		cat, err := table.DecodeCatalog(h.iva2.cat.Encode())
		if err != nil {
			return h.failf("iva2 catalog decode: %v", err)
		}
		if err := h.iva2.tblH.reopen(); err != nil {
			return h.failf("iva2 table reopen: %v", err)
		}
		if err := h.iva2.ixH.reopen(); err != nil {
			return h.failf("iva2 index reopen: %v", err)
		}
		tbl, err := table.Open(h.iva2.tblH.f, cat)
		if err != nil {
			return h.failf("iva2 table open: %v", err)
		}
		ix, err := core.Open(h.iva2.ixH.f, tbl, mirrorOpts())
		if err != nil {
			return h.failf("iva2 index open: %v", err)
		}
		h.iva2.cat, h.iva2.tbl, h.iva2.ix = cat, tbl, ix
		if err := h.mirrorDiff("post-reopen", q, c, want); err != nil {
			return err
		}
		rep, err := h.iva2.ix.Check()
		if err != nil {
			return h.failf("iva2 check: %v", err)
		}
		if !rep.Ok() {
			return h.failf("iva2 check after reopen: %v", rep.Problems)
		}
		h.notePackedLists()
	}
	h.res.Reopens++
	return nil
}

// --- search ops --------------------------------------------------------

// searchOp is the core differential check: one generated query, one metric
// grid point, compared across engine × parallelism, plus the k-prefix
// metamorphic assertion and (periodically) the estimate-tightness audit.
func (h *harness) searchOp() error {
	q, err := h.nextQuery()
	if err != nil {
		return err
	}
	c := h.nextCombo()
	ivaM, siiM, dstM, refM := h.metricsFor(c)
	want := h.bruteForce(q, refM)

	for _, par := range parGrid {
		h.iva.ix.SetSearchParallelism(par)
		got, st, err := h.iva.ix.Search(q, ivaM)
		if err != nil {
			return h.failf("iva search par=%d: %v", par, err)
		}
		if par == 1 && st.Workers != 1 {
			return h.failf("iva par=1 reported %d workers", st.Workers)
		}
		if err := h.diff(fmt.Sprintf("iva %s par=%d", c.name, par), want, got); err != nil {
			return err
		}
	}

	// Codec differential: the packed mirror must answer byte-identically at
	// every parallelism, mid-workload — straddling deletes, reopens, and
	// rebuilds.
	if h.iva2 != nil {
		if err := h.mirrorDiff("search", q, c, want); err != nil {
			return err
		}
	}
	got, _, err := h.sii.ix.Search(q, siiM)
	if err != nil {
		return h.failf("sii search: %v", err)
	}
	if err := h.diff("sii "+c.name, want, got); err != nil {
		return err
	}
	if got, _, err = h.dst.sc.Search(q, dstM); err != nil {
		return h.failf("dst search: %v", err)
	}
	if err := h.diff("dst "+c.name, want, got); err != nil {
		return err
	}

	// Metamorphic: growing k must preserve the k-prefix (the lexicographic
	// order is total, so the first k of top-(k+3) is exactly top-k).
	wide := *q
	wide.K = q.K + 3
	gotWide, _, err := h.iva.ix.Search(&wide, ivaM)
	if err != nil {
		return h.failf("iva k+3 search: %v", err)
	}
	if len(gotWide) < len(want) {
		return h.failf("iva k+3 returned %d < %d results", len(gotWide), len(want))
	}
	if err := h.diff("iva k-prefix "+c.name, want, gotWide[:len(want)]); err != nil {
		return err
	}

	if h.res.Searches%16 == 0 {
		if err := h.explainCheck(q, ivaM, want, c); err != nil {
			return err
		}
	}
	h.res.Searches++
	return nil
}

// explainCheck audits the filter's lower bounds through ExplainSearch: a
// per-term tightness above 1 would mean an estimate exceeded the true
// difference — a false-negative risk — and negative estimates are nonsense.
func (h *harness) explainCheck(q *model.Query, m *metric.Metric, want []model.Result, c combo) error {
	ex, err := h.iva.ix.ExplainSearch(q, m)
	if err != nil {
		return h.failf("iva explain: %v", err)
	}
	if err := h.diff("iva explain "+c.name, want, ex.Results); err != nil {
		return err
	}
	for _, te := range ex.Terms {
		if te.Tightness > 1+1e-9 {
			return h.failf("attr %d (%s): tightness %v > 1: estimate exceeded true difference",
				te.Attr, c.name, te.Tightness)
		}
		if te.MinEst < 0 {
			return h.failf("attr %d (%s): negative estimate %v", te.Attr, c.name, te.MinEst)
		}
	}
	return nil
}

// roundTripOp asserts that an insert immediately followed by deleting the
// same tuple is a no-op for search results on every engine.
func (h *harness) roundTripOp() error {
	q, err := h.nextQuery()
	if err != nil {
		return err
	}
	c := h.nextCombo()
	ivaM, siiM, dstM, _ := h.metricsFor(c)
	h.iva.ix.SetSearchParallelism(0)
	search := func(phase string) (iva, sii, dst []model.Result, err error) {
		if iva, _, err = h.iva.ix.Search(q, ivaM); err != nil {
			return nil, nil, nil, h.failf("iva %s search: %v", phase, err)
		}
		if sii, _, err = h.sii.ix.Search(q, siiM); err != nil {
			return nil, nil, nil, h.failf("sii %s search: %v", phase, err)
		}
		if dst, _, err = h.dst.sc.Search(q, dstM); err != nil {
			return nil, nil, nil, h.failf("dst %s search: %v", phase, err)
		}
		return iva, sii, dst, nil
	}
	preIVA, preSII, preDST, err := search("pre-roundtrip")
	if err != nil {
		return err
	}
	vals, err := h.nextRow()
	if err != nil {
		return err
	}
	tid, err := h.insertTuple(vals)
	if err != nil {
		return err
	}
	h.dropRef(len(h.liveTIDs) - 1) // the tuple just appended
	if err := h.deleteTuple(tid); err != nil {
		return err
	}
	postIVA, postSII, postDST, err := search("post-roundtrip")
	if err != nil {
		return err
	}
	if err := h.diff("iva roundtrip "+c.name, preIVA, postIVA); err != nil {
		return err
	}
	if h.iva2 != nil {
		// The mirror saw the same insert→delete pair (via insertTuple /
		// deleteTuple); its post state must match the raw engine's.
		h.iva2.ix.SetSearchParallelism(0)
		got, _, err := h.iva2.ix.Search(q, h.mirrorMetric(c))
		if err != nil {
			return h.failf("iva2 post-roundtrip search: %v", err)
		}
		h.res.CodecComparisons++
		if err := h.diff("iva2 roundtrip "+c.name, postIVA, got); err != nil {
			return err
		}
	}
	if err := h.diff("sii roundtrip "+c.name, preSII, postSII); err != nil {
		return err
	}
	if err := h.diff("dst roundtrip "+c.name, preDST, postDST); err != nil {
		return err
	}
	h.res.RoundTrips++
	return nil
}

// finalSweep closes a run: every metric grid point × every parallelism is
// diffed once more against the reference on the final store state, and the
// iVA-file passes a last full integrity check.
func (h *harness) finalSweep() error {
	h.curOp = opSearch
	for _, c := range combos {
		q, err := h.nextQuery()
		if err != nil {
			return err
		}
		ivaM, siiM, dstM, refM := h.metricsFor(c)
		want := h.bruteForce(q, refM)
		for _, par := range parGrid {
			h.iva.ix.SetSearchParallelism(par)
			got, _, err := h.iva.ix.Search(q, ivaM)
			if err != nil {
				return h.failf("final iva %s par=%d: %v", c.name, par, err)
			}
			if err := h.diff(fmt.Sprintf("final iva %s par=%d", c.name, par), want, got); err != nil {
				return err
			}
		}
		if h.iva2 != nil {
			if err := h.mirrorDiff("final", q, c, want); err != nil {
				return err
			}
		}
		got, _, err := h.sii.ix.Search(q, siiM)
		if err != nil {
			return h.failf("final sii %s: %v", c.name, err)
		}
		if err := h.diff("final sii "+c.name, want, got); err != nil {
			return err
		}
		if got, _, err = h.dst.sc.Search(q, dstM); err != nil {
			return h.failf("final dst %s: %v", c.name, err)
		}
		if err := h.diff("final dst "+c.name, want, got); err != nil {
			return err
		}
		h.res.Searches++
	}
	rep, err := h.iva.ix.Check()
	if err != nil {
		return h.failf("final iva check: %v", err)
	}
	if !rep.Ok() {
		return h.failf("final iva check: %v", rep.Problems)
	}
	if h.iva2 != nil {
		h.notePackedLists()
		rep, err := h.iva2.ix.Check()
		if err != nil {
			return h.failf("final iva2 check: %v", err)
		}
		if !rep.Ok() {
			return h.failf("final iva2 check: %v", rep.Problems)
		}
	}
	return h.corruptionSweep()
}
