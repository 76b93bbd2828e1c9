// Package oracle is the differential correctness harness: it replays one
// seeded workload (rows and queries from internal/dataset's correctness
// mix) simultaneously against the three engines of the paper's evaluation —
// the iVA-file (internal/core), the sparse inverted index SII
// (internal/invidx) and the direct scan DST (internal/scan) — plus a
// brute-force in-memory reference, and fails on the first divergence.
//
// The engines are a list: each sits behind one adapter (engine.go), and
// every op — write, delete, sync, rebuild, reopen, compare, check — is one
// loop over it. Options.CodecMirror adds one entry, iva2, a second iVA-file
// under the packed block codec.
//
// Because the iVA-file's estimates are true lower bounds and every engine
// breaks distance ties by tid, all must return *identical* top-k lists
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
	"sort"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/invidx"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
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
	// CodecMirror, when true, adds a second iVA-file built with the packed
	// block codec (codec 1) to the engine list. Like every engine it sees
	// every mutation, sync, reopen and rebuild, and its answers must stay
	// byte-identical across the whole parallelism grid — the codec
	// differential.
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
	// CodecComparisons counts the diffs of the packed-codec mirror (also
	// counted in Comparisons); PackedLists is the largest number
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

// parGrid is the SearchParallelism sweep for the iVA engines: sequential,
// two workers, and GOMAXPROCS (0). The baselines are searched once, at 1.
var parGrid = []int{1, 2, 0}

type harness struct {
	opt Options
	// rng draws the schedule, victims and queries; rows are tuples
	// 0, 1, 2, ... of data, which derives each from the seed and its index.
	rng  *rand.Rand
	data *dataset.Generator
	rows int

	pool *storage.Pool
	// engines is iva, iva2 (the packed-codec mirror, Options.CodecMirror
	// only), sii, dst. Every op walks the list; engine 0 alone takes the
	// checks only the iVA-file supports.
	engines []*engine

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
	h, err := newHarness(opt)
	if err != nil {
		return Result{}, err
	}
	defer h.close()
	return h.run()
}

func newHarness(opt Options) (*harness, error) {
	if opt.Ops <= 0 {
		opt.Ops = 10000
	}
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
	serial := []int{1}
	engines := []*engine{{name: "iva", pars: parGrid, attach: attachIVA(coreOpts())}}
	if opt.CodecMirror {
		engines = append(engines, &engine{name: "iva2", pars: parGrid, mirror: true, attach: attachIVA(mirrorOpts())})
	}
	engines = append(engines,
		&engine{name: "sii", pars: serial, attach: attachSII},
		&engine{name: "dst", pars: serial, attach: attachDST})
	for _, e := range engines {
		// DST keeps no index file.
		if err := h.addEngine(e, e.name != "dst"); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

// run replays the schedule and the final sweep.
func (h *harness) run() (Result, error) {
	for h.opIndex = 0; h.opIndex < h.opt.Ops; h.opIndex++ {
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
				h.opIndex+1, h.opt.Ops, len(h.liveTIDs), h.res.Searches)
		}
	}
	if err := h.finalSweep(); err != nil {
		return h.res, err
	}
	return h.res, nil
}

func (h *harness) close() {
	for _, e := range h.engines {
		for _, hd := range e.handles() {
			if hd.f != nil {
				hd.f.Close()
			}
		}
	}
}

// iva is engine 0's iVA-file, the one engine ExplainSearch and the
// corruption sweep audit.
func (h *harness) iva() *core.Index { return h.engines[0].ix.(ivaIndex).Index }

// attrID registers name on every catalog and checks the assigned ids agree —
// they must, since every engine sees the identical append sequence.
func (h *harness) attrID(name string, kind model.Kind) (model.AttrID, error) {
	var id model.AttrID
	for i, e := range h.engines {
		a, err := e.cat.AddAttr(name, kind)
		if err != nil {
			return 0, h.failf("%s catalog: %v", e.name, err)
		}
		if i == 0 {
			id = a
		} else if a != id {
			return 0, h.failf("catalog id divergence for %q: %s=%d %s=%d", name, h.engines[0].name, id, e.name, a)
		}
	}
	return id, nil
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

// refMetric is the reference's metric for one grid point, its ITF
// statistics read from the reference itself.
func (h *harness) refMetric(c combo) *metric.Metric {
	if !c.itf {
		return metric.New(c.comb, metric.Equal{})
	}
	return metric.New(c.comb, metric.NewITF(
		func() int64 { return int64(len(h.ref)) },
		func(a model.AttrID) int64 { return h.refDF[a] }))
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

// diff demands exact equality of one engine's answer: same tids, bit-equal
// distances.
func (h *harness) diff(e *engine, label string, want, got []model.Result) error {
	h.res.Comparisons++
	if e.mirror {
		h.res.CodecComparisons++
	}
	if len(want) != len(got) {
		return h.failf("%s %s: got %d results, want %d\n  got:  %v\n  want: %v",
			e.name, label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].TID != got[i].TID || want[i].Dist != got[i].Dist {
			return h.failf("%s %s: result %d = (tid %d, %v), want (tid %d, %v)\n  got:  %v\n  want: %v",
				e.name, label, i, got[i].TID, got[i].Dist, want[i].TID, want[i].Dist, got, want)
		}
	}
	return nil
}

// compare searches each engine of es over its parallelism grid and diffs
// each answer against want. Degraded segments read on the way are summed into
// DegradedReads; only the corruption sweep's damage produces any.
func (h *harness) compare(es []*engine, label string, q *model.Query, c combo, want []model.Result) error {
	for _, e := range es {
		m := e.metric(c)
		for _, par := range e.pars {
			got, workers, degraded, err := e.ix.search(q, m, par)
			if err != nil {
				return h.failf("%s %s %s search par=%d: %v", e.name, label, c.name, par, err)
			}
			if par == 1 && workers != 1 {
				return h.failf("%s %s par=1 reported %d workers", e.name, label, workers)
			}
			h.res.DegradedReads += degraded
			if err := h.diff(e, fmt.Sprintf("%s %s par=%d", label, c.name, par), want, got); err != nil {
				return err
			}
		}
	}
	return nil
}

// check runs the full integrity check on every engine that has one.
func (h *harness) check(label string) error {
	for _, e := range h.engines {
		ix, ok := e.ix.(ivaIndex)
		if !ok {
			continue
		}
		rep, err := ix.Check()
		if err != nil {
			return h.failf("%s check %s: %v", e.name, label, err)
		}
		if !rep.Ok() {
			return h.failf("%s check %s: %v", e.name, label, rep.Problems)
		}
	}
	return nil
}

// notePackedLists tracks the high-water count of packed lists over the
// iVA-file engines (only the mirror has any), so the test entry can assert
// the codec differential was not vacuous.
func (h *harness) notePackedLists() {
	for _, e := range h.engines {
		ix, ok := e.ix.(ivaIndex)
		if !ok {
			continue
		}
		packed := 0
		for _, r := range ix.Attrs() {
			if r.CodedBlocks > 0 {
				packed++
			}
		}
		h.res.PackedLists = max(h.res.PackedLists, packed)
	}
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
		for _, e := range h.engines {
			h.res.Rebuilds++
			if err := h.rebuild(e); err != nil {
				return err
			}
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

// writeTuple pushes vals into all engines and the reference — as an insert, or
// as the engines' update of the tuple old, which the caller has dropped from
// the reference. An engine whose packed tid width overflows is answered the
// way Store does: one rebuild, which keeps the reference's tuples (so old is
// gone by then), and a retry as a plain insert. The engines must assign the
// same tid: they see identical append sequences and rebuilds preserve nextTID.
func (h *harness) writeTuple(vals map[model.AttrID]model.Value, old model.TID, replacing bool) (model.TID, error) {
	var tid model.TID
	for i, e := range h.engines {
		got, err := e.ix.write(vals, old, replacing)
		if errors.Is(err, core.ErrNeedsRebuild) || errors.Is(err, invidx.ErrNeedsRebuild) {
			h.res.Rebuilds++
			if err := h.rebuild(e); err != nil {
				return 0, err
			}
			got, err = e.ix.write(vals, 0, false)
		}
		if err != nil {
			return 0, h.failf("%s write (replacing=%v %d): %v", e.name, replacing, old, err)
		}
		if i == 0 {
			tid = got
		} else if got != tid {
			return 0, h.failf("tid divergence: %s=%d %s=%d", h.engines[0].name, tid, e.name, got)
		}
	}
	h.ref[tid] = &model.Tuple{TID: tid, Values: vals}
	h.liveTIDs = append(h.liveTIDs, tid)
	for a := range vals {
		h.refDF[a]++
	}
	return tid, nil
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
	for _, e := range h.engines {
		if err := e.ix.Delete(tid); err != nil {
			return h.failf("%s delete %d: %v", e.name, tid, err)
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

func (h *harness) refKeep(tid model.TID) bool {
	_, ok := h.ref[tid]
	return ok
}

// --- durability ops ----------------------------------------------------

// syncAll syncs every engine. No write touches a committed index byte, so an
// iVA-file's committed words hold at any moment: its Scrub must be clean
// before each Sync.
func (h *harness) syncAll() error {
	for _, e := range h.engines {
		if ix, ok := e.ix.(ivaIndex); ok {
			rep, err := ix.Scrub()
			if err != nil {
				return h.failf("%s scrub before sync: %v", e.name, err)
			}
			if !rep.Clean() {
				return h.failf("%s scrub before sync: %v", e.name, rep.Problems)
			}
		}
		if err := e.tbl.Sync(); err != nil {
			return h.failf("%s table sync: %v", e.name, err)
		}
		if err := e.ix.Sync(); err != nil {
			return h.failf("%s index sync: %v", e.name, err)
		}
	}
	return nil
}

// reopenOp asserts the results-invariant-under-reopen metamorphic property:
// search, sync, close and reopen every engine from its (synced) files, search
// again — every engine's answers must match the reference on both sides, and
// each reopened iVA-file must pass its full integrity check. The open path of
// the packed mirror (codec bytes in the attribute elements, the
// block-directory walk) rides along.
func (h *harness) reopenOp() error {
	q, err := h.nextQuery()
	if err != nil {
		return err
	}
	c := h.nextCombo()
	want := h.bruteForce(q, h.refMetric(c))
	if err := h.compare(h.engines, "pre-reopen", q, c, want); err != nil {
		return err
	}
	if err := h.syncAll(); err != nil {
		return err
	}
	for _, e := range h.engines {
		if err := h.closeFiles(e); err != nil {
			return err
		}
		if err := h.openFiles(e); err != nil {
			return err
		}
	}
	if err := h.compare(h.engines, "post-reopen", q, c, want); err != nil {
		return err
	}
	if err := h.check("after reopen"); err != nil {
		return err
	}
	h.notePackedLists()
	h.res.Reopens++
	return nil
}

// --- search ops --------------------------------------------------------

// searchOp is the core differential check: one generated query, one metric
// grid point, compared across engine × parallelism, plus the k-prefix
// metamorphic assertion and (periodically) the estimate-tightness audit on
// engine 0.
func (h *harness) searchOp() error {
	q, err := h.nextQuery()
	if err != nil {
		return err
	}
	c := h.nextCombo()
	want := h.bruteForce(q, h.refMetric(c))
	if err := h.compare(h.engines, "search", q, c, want); err != nil {
		return err
	}

	// Metamorphic: growing k must preserve the k-prefix (the lexicographic
	// order is total, so the first k of top-(k+3) is exactly top-k).
	e := h.engines[0]
	m := e.metric(c)
	wide := *q
	wide.K = q.K + 3
	gotWide, _, _, err := e.ix.search(&wide, m, 0)
	if err != nil {
		return h.failf("%s k+3 search: %v", e.name, err)
	}
	if len(gotWide) < len(want) {
		return h.failf("%s k+3 returned %d < %d results", e.name, len(gotWide), len(want))
	}
	if err := h.diff(e, "k-prefix "+c.name, want, gotWide[:len(want)]); err != nil {
		return err
	}

	if h.res.Searches%16 == 0 {
		if err := h.explainCheck(q, m, want, c); err != nil {
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
	ex, err := h.iva().ExplainSearch(q, m)
	if err != nil {
		return h.failf("%s explain: %v", h.engines[0].name, err)
	}
	if err := h.diff(h.engines[0], "explain "+c.name, want, ex.Results); err != nil {
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
	search := func(phase string) ([][]model.Result, error) {
		out := make([][]model.Result, len(h.engines))
		for i, e := range h.engines {
			got, _, _, err := e.ix.search(q, e.metric(c), 0)
			if err != nil {
				return nil, h.failf("%s %s search: %v", e.name, phase, err)
			}
			out[i] = got
		}
		return out, nil
	}
	pre, err := search("pre-roundtrip")
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
	post, err := search("post-roundtrip")
	if err != nil {
		return err
	}
	for i, e := range h.engines {
		if err := h.diff(e, "roundtrip "+c.name, pre[i], post[i]); err != nil {
			return err
		}
	}
	h.res.RoundTrips++
	return nil
}

// finalSweep closes a run: every metric grid point is diffed once more on
// every engine × parallelism against the reference on the final store state,
// the iVA-files pass a last full integrity check, and the corruption sweep
// runs.
func (h *harness) finalSweep() error {
	h.curOp = opSearch
	for _, c := range combos {
		q, err := h.nextQuery()
		if err != nil {
			return err
		}
		if err := h.compare(h.engines, "final", q, c, h.bruteForce(q, h.refMetric(c))); err != nil {
			return err
		}
		h.res.Searches++
	}
	h.notePackedLists()
	if err := h.check("final"); err != nil {
		return err
	}
	return h.corruptionSweep()
}
