package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// stripedFixture builds a fixture with stripes narrow enough that the scan is
// cut into several of them and more than one worker may run, with tombstones
// (see straddleDeletes) straddling several stripe boundaries.
func stripedFixture(t testing.TB, tuples int, every int64, seed int64) *fixture {
	fx := newFixture(t, tuples, Options{CheckpointEvery: every, TIDHeadroom: 1 << 20}, seed)
	if len(fx.ix.planShape().ckpts) < 2 || fx.ix.Entries() < 2*every {
		t.Fatalf("fixture not striped: %d ckpts over %d entries", len(fx.ix.ckpts), len(fx.ix.entries))
	}
	return fx
}

// dropCheckpoints puts the index in the shape of one whose checkpoint chain
// was discarded at open: no checkpoint chain, so a search scans one
// origin-anchored stripe.
func dropCheckpoints(ix *Index) {
	ix.mu.Lock()
	ix.ckptChain = storage.NoSegment
	ix.ckpts = nil
	ix.mu.Unlock()
}

// straddleDeletes tombstones the tuples on both sides of every stripe
// boundary, so workers see stripes that begin and end in deleted runs.
func straddleDeletes(t testing.TB, fx *fixture) {
	t.Helper()
	every := fx.ix.ckptEvery
	for b := every; b < int64(len(fx.ix.entries)); b += every {
		for _, tid := range []model.TID{model.TID(b - 1), model.TID(b), model.TID(b + 1)} {
			if err := fx.ix.Delete(tid); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
		}
	}
}

// fixtureMetrics is the equivalence matrix: every combiner crossed with both
// weighting schemes.
func fixtureMetrics(fx *fixture) map[string]*metric.Metric {
	cat := fx.tbl.Catalog()
	itf := func() metric.Weighter {
		return metric.NewITF(fx.tbl.Live, func(a model.AttrID) int64 {
			info, _ := cat.Info(a)
			return info.DF
		})
	}
	return map[string]*metric.Metric{
		"L1/EQU":   metric.New(metric.L1{}, metric.Equal{}),
		"L2/EQU":   metric.New(metric.L2{}, metric.Equal{}),
		"Linf/EQU": metric.New(metric.LInf{}, metric.Equal{}),
		"L1/ITF":   metric.New(metric.L1{}, itf()),
		"L2/ITF":   metric.New(metric.L2{}, itf()),
		"Linf/ITF": metric.New(metric.LInf{}, itf()),
	}
}

// identicalResults demands byte-identical answers: same tids in the same
// order with exactly equal distances.
func identicalResults(a, b []model.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TID != b[i].TID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestStripedMatchesBruteForce is the randomized equivalence suite: at every
// worker count the search must return the byte-identical (dist, tid) answer
// of an exhaustive scan, under every metric/weighting pair, on a fixture
// whose tombstones straddle stripe boundaries. Counters are held only to what
// no schedule can change: every live entry is scanned exactly once.
func TestStripedMatchesBruteForce(t *testing.T) {
	fx := stripedFixture(t, 3000, 256, 301)
	straddleDeletes(t, fx)
	live := fx.ix.Entries() - fx.ix.Deleted()
	for name, m := range fixtureMetrics(fx) {
		for trial := 0; trial < 8; trial++ {
			q := fx.randQuery(t, 1+fx.rng.Intn(3), 1+fx.rng.Intn(10))
			want := bruteForce(t, fx, q, m)
			for _, par := range []int{1, 2, 4, 8} {
				fx.ix.SetSearchParallelism(par)
				got, stats, err := fx.ix.Search(q, m)
				if err != nil {
					t.Fatalf("%s trial %d par %d: %v", name, trial, par, err)
				}
				if !identicalResults(got, want) {
					t.Fatalf("%s trial %d par %d: results differ\n got %v\nwant %v\nquery %+v",
						name, trial, par, got, want, q)
				}
				if stats.Scanned != live {
					t.Fatalf("%s trial %d par %d: scanned %d of %d live",
						name, trial, par, stats.Scanned, live)
				}
			}
		}
	}
}

// TestStripedOneWorkerMatchesUnstriped pins the checkpoint resume logic: a
// single worker claims stripes in order and carries one pool across them, so
// its answer and its scan must be exactly those of one uninterrupted scan from
// the origin (the same index with its checkpoints dropped), and the same on
// every run. The fetch counts differ, as the stripe ends seed the deferred
// list at other points, but both fetch every tuple any exact plan fetches.
func TestStripedOneWorkerMatchesUnstriped(t *testing.T) {
	fx := stripedFixture(t, 2000, 128, 302)
	straddleDeletes(t, fx)
	fx.ix.SetSearchParallelism(1)
	type run struct {
		res   []model.Result
		stats SearchStats
	}
	type query struct {
		name string
		m    *metric.Metric
		q    *model.Query
	}
	var queries []query
	for name, m := range fixtureMetrics(fx) {
		for trial := 0; trial < 6; trial++ {
			queries = append(queries, query{name, m, fx.randQuery(t, 2, 5)})
		}
	}
	search := func(i int) run {
		res, stats, err := fx.ix.Search(queries[i].q, queries[i].m)
		if err != nil {
			t.Fatalf("%s query %d: %v", queries[i].name, i, err)
		}
		return run{res, stats}
	}
	var striped []run
	for i := range queries {
		a, b := search(i), search(i)
		if !identicalResults(a.res, b.res) || a.stats.Scanned != b.stats.Scanned ||
			a.stats.TableAccesses != b.stats.TableAccesses {
			t.Fatalf("query %d: one worker is not deterministic: %+v vs %+v", i, a.stats, b.stats)
		}
		striped = append(striped, a)
		requireFloorFetched(t, fx.ix, queries[i].q, queries[i].m)
	}
	dropCheckpoints(fx.ix)
	for i := range queries {
		got, want := search(i), striped[i]
		if got.stats.StripesTotal != 1 {
			t.Fatalf("query %d: %d stripes without checkpoints", i, got.stats.StripesTotal)
		}
		if !identicalResults(got.res, want.res) {
			t.Fatalf("query %d: results differ", i)
		}
		if got.stats.Scanned != want.stats.Scanned {
			t.Fatalf("query %d: scanned %d/%d", i, got.stats.Scanned, want.stats.Scanned)
		}
		requireFloorFetched(t, fx.ix, queries[i].q, queries[i].m)
	}
}

// TestPlanFetchesEveryTupleUnderTheBar holds the seeded, deferred refine to
// its two promises over random fixtures, metrics and k. Nothing Algorithm 1
// would keep is dropped from a worker's deferred list and every survivor is
// swept, so the answers equal brute force at 1, 2 and 8 workers. And at one
// worker every tuple whose bound is below the final k-th distance is fetched.
// The last fixture has no checkpoints and more live entries than deferCap:
// its one stripe defers every entry until the first refine, so the list
// reaches its cap and is drained mid-stripe.
func TestPlanFetchesEveryTupleUnderTheBar(t *testing.T) {
	for _, c := range []struct {
		tuples, trials int
		every          int64 // 0: no checkpoints
	}{{1500, 3, 128}, {3000, 3, 512}, {deferCap + 2*batchSize, 1, 0}} {
		fx := newFixture(t, c.tuples, Options{CheckpointEvery: c.every}, int64(c.tuples))
		if c.every == 0 {
			dropCheckpoints(fx.ix)
			if live := fx.ix.Entries() - fx.ix.Deleted(); live <= deferCap {
				t.Fatalf("%d live entries never fill the deferred list", live)
			}
		} else {
			straddleDeletes(t, fx)
		}
		for name, m := range fixtureMetrics(fx) {
			for trial := 0; trial < c.trials; trial++ {
				q := fx.randQuery(t, 1+fx.rng.Intn(3), 1+fx.rng.Intn(20))
				want := bruteForce(t, fx, q, m)
				for _, par := range []int{1, 2, 8} {
					fx.ix.SetSearchParallelism(par)
					got, _, err := fx.ix.Search(q, m)
					if err != nil {
						t.Fatal(err)
					}
					if !identicalResults(got, want) {
						t.Fatalf("%d tuples, %s trial %d par %d: results differ\n got %v\nwant %v",
							c.tuples, name, trial, par, got, want)
					}
				}
				requireFloorFetched(t, fx.ix, q, m)
			}
		}
	}
}

// requireFloorFetched runs ExplainSearch for q and demands that its fetch
// records hold every live tuple whose lower bound is below the final k-th
// distance: the fetches any exact plan makes. Every tuple's bound is read
// from a second explained search at k = every entry, whose pool never fills.
func requireFloorFetched(t *testing.T, ix *Index, q *model.Query, m *metric.Metric) {
	t.Helper()
	ex, err := ix.ExplainSearch(q, m)
	if err != nil {
		t.Fatal(err)
	}
	all := *q
	all.K = int(ix.Entries())
	every, err := ix.ExplainSearch(&all, m)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(every.fetches)) != every.Scanned {
		t.Fatalf("k = %d fetched %d of %d scanned tuples", all.K, len(every.fetches), every.Scanned)
	}
	fetched := make(map[model.TID]bool, len(ex.fetches))
	for _, f := range ex.fetches {
		fetched[f.tid] = true
	}
	for _, f := range every.fetches {
		if f.est < ex.PoolMaxFinal && !fetched[f.tid] {
			t.Fatalf("tuple %d: bound %v under the final k-th distance %v, never fetched (%d fetches)",
				f.tid, f.est, ex.PoolMaxFinal, len(ex.fetches))
		}
	}
}

// TestStripedAfterUpdates drives checkpoints through the update paths:
// single inserts and a boundary-crossing batch must both extend the stripe
// set, and searches must keep matching brute force afterwards.
func TestStripedAfterUpdates(t *testing.T) {
	fx := newFixture(t, 300, Options{CheckpointEvery: 128, TIDHeadroom: 1 << 20}, 303)
	for i := 0; i < 150; i++ {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]map[model.AttrID]model.Value, 600)
	for i := range batch {
		batch[i] = fx.randValues()
	}
	if _, err := fx.ix.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !fx.ix.checkpointsEnabled() {
		t.Fatal("updates disabled checkpoints")
	}
	if got, want := int64(len(fx.ix.ckpts)), (int64(len(fx.ix.entries))-1)/fx.ix.ckptEvery+1; got != want {
		t.Fatalf("checkpoints after updates: %d, want %d", got, want)
	}
	straddleDeletes(t, fx)
	m := metric.Default()
	for trial := 0; trial < 10; trial++ {
		q := fx.randQuery(t, 2, 8)
		want := bruteForce(t, fx, q, m)
		for _, par := range []int{1, 4} {
			fx.ix.SetSearchParallelism(par)
			got, _, err := fx.ix.Search(q, m)
			if err != nil {
				t.Fatalf("trial %d par %d: %v", trial, par, err)
			}
			if !identicalResults(got, want) {
				t.Fatalf("trial %d par %d after updates: diverged from brute force\n got %v\nwant %v", trial, par, got, want)
			}
		}
	}
}

// TestCheckpointPersistence round-trips checkpoints through Sync and Open:
// the reopened index must hold the same stripe set and answer identically at
// one and at several workers.
func TestCheckpointPersistence(t *testing.T) {
	pool := storage.NewPool(0, 10<<20)
	cat := table.NewCatalog()
	tblDev := storage.NewMemDevice()
	idxDev := storage.NewMemDevice()
	tbl, err := table.New(storage.NewFile(pool, tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cat.AddAttr("name", model.KindText)
	b, _ := cat.AddAttr("price", model.KindNumeric)
	for i := 0; i < 1200; i++ {
		if _, _, err := tbl.Append(map[model.AttrID]model.Value{
			a: model.Text(words[i%len(words)]),
			b: model.Num(float64(i % 700)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{CheckpointEvery: 128}
	ix, err := Build(tbl, storage.NewFile(pool, idxDev), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(storage.NewFile(pool, idxDev), tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix2.ckpts) != len(ix.ckpts) {
		t.Fatalf("reopened checkpoint count: %d, want %d", len(ix2.ckpts), len(ix.ckpts))
	}
	for i := range ix.ckpts {
		if co := ix.ckpts[i].attrOff; len(co) != len(ix2.ckpts[i].attrOff) {
			t.Fatalf("checkpoint %d width differs", i)
		} else {
			for aIdx := range co {
				if co[aIdx] != ix2.ckpts[i].attrOff[aIdx] {
					t.Fatalf("checkpoint %d attr %d: %d vs %d", i, aIdx, co[aIdx], ix2.ckpts[i].attrOff[aIdx])
				}
			}
		}
	}
	m := metric.Default()
	q := (&model.Query{K: 7}).TextTerm(a, "canon").NumTerm(b, 300)
	want := bruteForceIndex(t, ix2, q, m)
	for _, par := range []int{1, 4} {
		ix2.SetSearchParallelism(par)
		got, stats, err := ix2.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != par || stats.StripesTotal != len(ix.ckpts) {
			t.Fatalf("reopened index ran %d workers over %d stripes, want %d over %d",
				stats.Workers, stats.StripesTotal, par, len(ix.ckpts))
		}
		if !identicalResults(got, want) {
			t.Fatalf("reopened index par %d differs: %v vs %v", par, got, want)
		}
	}

	// A torn Sync: inserts cross further stripe boundaries and the new
	// checkpoint records are written behind the committed ones, but the
	// superblock never commits. The superblock's count is the
	// authoritative one: a reopen sees the committed stripes and no more.
	for i := 0; i < 300; i++ {
		if _, err := ix.Insert(map[model.AttrID]model.Value{b: model.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ix.ckpts) <= len(ix2.ckpts) {
		t.Fatalf("fixture: inserts recorded no new checkpoint (%d)", len(ix.ckpts))
	}
	if err := ix.writeCheckpoints(); err != nil {
		t.Fatal(err)
	}
	ix3, err := Open(storage.NewFile(pool, idxDev), tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix3.Entries() != 1200 || len(ix3.ckpts) != len(ix2.ckpts) {
		t.Fatalf("reopen after a torn sync: %d entries in %d stripes, want the committed 1200 in %d",
			ix3.Entries(), len(ix3.ckpts), len(ix2.ckpts))
	}
}

// orderedStore builds 256 rows whose numeric attribute is the insertion order
// (every third row also carries a text tag) into 32 stripes of 8 entries, over
// devices the caller keeps so the files can be reopened.
type orderedStore struct {
	tblDev, idxDev *storage.MemDevice
	cat            *table.Catalog
	tbl            *table.Table
	ix             *Index
	num, txt       model.AttrID
}

func (s *orderedStore) row(i int) map[model.AttrID]model.Value {
	vals := map[model.AttrID]model.Value{s.num: model.Num(float64(i))}
	if i%3 == 0 {
		vals[s.txt] = model.Text(fmt.Sprintf("tag-%d", i%7))
	}
	return vals
}

func newOrderedStore(t *testing.T) *orderedStore {
	t.Helper()
	pool := storage.NewPool(0, 1<<20)
	s := &orderedStore{tblDev: storage.NewMemDevice(), idxDev: storage.NewMemDevice(), cat: table.NewCatalog()}
	var err error
	if s.num, err = s.cat.AddAttr("ts", model.KindNumeric); err != nil {
		t.Fatal(err)
	}
	if s.txt, err = s.cat.AddAttr("tag", model.KindText); err != nil {
		t.Fatal(err)
	}
	if s.tbl, err = table.New(storage.NewFile(pool, s.tblDev), s.cat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, _, err := s.tbl.Append(s.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.ix, err = Build(s.tbl, storage.NewFile(pool, s.idxDev), Options{CheckpointEvery: 8}); err != nil {
		t.Fatal(err)
	}
	return s
}

// requireBruteForce searches ix at one and two workers and demands the
// byte-identical answer of an exhaustive scan, with every live entry scanned
// exactly once.
func requireBruteForce(t *testing.T, ix *Index, queries ...*model.Query) {
	t.Helper()
	m := metric.Default()
	for qi, q := range queries {
		want := bruteForceIndex(t, ix, q, m)
		for _, par := range []int{1, 2} {
			ix.SetSearchParallelism(par)
			got, st, err := ix.Search(q, m)
			if err != nil {
				t.Fatalf("query %d par %d: %v", qi, par, err)
			}
			if st.Workers != par || st.StripesTotal != len(ix.ckpts) {
				t.Fatalf("query %d par %d: %d workers over %d stripes, want %d over %d",
					qi, par, st.Workers, st.StripesTotal, par, len(ix.ckpts))
			}
			if !identicalResults(got, want) {
				t.Fatalf("query %d par %d: diverged from brute force\n got %v\nwant %v", qi, par, got, want)
			}
			if live := ix.Entries() - ix.Deleted(); st.Scanned != live {
				t.Fatalf("query %d par %d: scanned %d of %d live", qi, par, st.Scanned, live)
			}
		}
	}
}

// TestStripedTombstonedStripe tombstones every entry of one sealed stripe: a
// worker that claims it resumes from its checkpoint, finds nothing live, and
// moves on — the stripe contributes nothing and no deleted tid resurfaces,
// even for a query centred on the deleted values.
func TestStripedTombstonedStripe(t *testing.T) {
	s := newOrderedStore(t)
	for tid := model.TID(8); tid < 16; tid++ { // stripe 1
		if err := s.ix.Delete(tid); err != nil {
			t.Fatal(err)
		}
	}
	centred := (&model.Query{K: 4}).NumTerm(s.num, 11)
	requireBruteForce(t, s.ix, centred, (&model.Query{K: 20}).NumTerm(s.num, 12).TextTerm(s.txt, "tag-5"))
	s.ix.SetSearchParallelism(1)
	res, st, err := s.ix.Search(centred, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.TID >= 8 && r.TID < 16 {
			t.Fatalf("deleted tuple %d resurfaced", r.TID)
		}
	}
	// The 30 stripes a stripe-level bound once skipped here are scanned, and
	// every one of their tuples fails the bar on its own estimate. The fetches
	// are 5, from the two stripes around the query value: stripe 0's seed
	// takes its four closest tuples, 7 down to 4, in bound order; stripe 2's
	// takes 16, which displaces 4 and leaves a bar of 6 that no later bound
	// beats.
	if st.TableAccesses != 5 {
		t.Fatalf("one worker fetched %d records, want 5", st.TableAccesses)
	}
}

// TestCheckpointMidStripeReopen reopens an index whose tuple list ends inside
// a stripe and inserts across the next stripe boundary: the checkpoints the
// reopened instance seals — from list ends it did not write itself — must
// resume every list correctly.
func TestCheckpointMidStripeReopen(t *testing.T) {
	s := newOrderedStore(t)
	for i := 256; i < 259; i++ { // 256 rows sealed 32 stripes; 3 more open the 33rd
		if _, err := s.ix.Insert(s.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.ix.Sync(); err != nil {
		t.Fatal(err)
	}

	pool := storage.NewPool(0, 1<<20)
	tbl, err := table.Open(storage.NewFile(pool, s.tblDev), s.cat)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(storage.NewFile(pool, s.idxDev), tbl, Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != 259 || len(ix.ckpts) != 33 {
		t.Fatalf("reopened %d entries in %d stripes, want 259 in 33", ix.Entries(), len(ix.ckpts))
	}
	for i := 259; i < 276; i++ { // fills stripe 32, all of stripe 33, opens stripe 34
		if _, err := ix.Insert(s.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.checkpointsEnabled() || len(ix.ckpts) != 35 {
		t.Fatalf("%d stripes after crossing two boundaries, want 35", len(ix.ckpts))
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	requireBruteForce(t, ix,
		(&model.Query{K: 5}).NumTerm(s.num, 270),
		(&model.Query{K: 6}).TextTerm(s.txt, "tag-3").NumTerm(s.num, 266),
		(&model.Query{K: 3}).TextTerm(s.txt, "tag-1"))
}

// singleStripeCase is one index whose searches must run as one
// origin-anchored stripe on one worker, whatever SearchParallelism says.
type singleStripeCase struct {
	name    string
	ix      *Index
	pool    *storage.Pool
	queries []*model.Query
}

// singleStripeCases builds the geometries the striped loop has to absorb
// without usable stripes: checkpoints dropped at open after a flipped
// checkpoint byte, no checkpoint chain at all, fewer entries
// than one stripe, and no entries.
func singleStripeCases(t *testing.T) []singleStripeCase {
	t.Helper()
	var cases []singleStripeCase

	cf := buildCorruptionFixture(t)
	probe, probeFiles := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	// Past the segment header and record 0's nattrs word: inside its first
	// offset, which the checksum map covers.
	off := probe.segs.SegmentOffset(probe.ckptChain) + 8 + 4 + 1
	probeFiles()
	cf.flip(t, off, 2)
	pool := storage.NewPool(0, 1<<20)
	ix, closeFiles := cf.open(t, pool, Options{})
	t.Cleanup(closeFiles)
	if ix.DroppedCheckpoints() == 0 || ix.checkpointsEnabled() {
		t.Fatalf("flipped checkpoint byte at %d was not dropped", off)
	}
	cases = append(cases, singleStripeCase{"ckpts-dropped-by-degrade", ix, pool, cf.queries})

	bare := newFixture(t, 600, Options{CheckpointEvery: 128}, 304)
	queries := []*model.Query{bare.randQuery(t, 2, 5), bare.randQuery(t, 3, 9)}
	dropCheckpoints(bare.ix)
	cases = append(cases, singleStripeCase{"no-checkpoint-chain", bare.ix, bare.pool, queries})

	tiny := newFixture(t, 100, Options{CheckpointEvery: 128}, 307)
	cases = append(cases, singleStripeCase{"under-one-stripe", tiny.ix, tiny.pool,
		[]*model.Query{tiny.randQuery(t, 2, 5), tiny.randQuery(t, 1, 200)}})

	empty := newFixture(t, 0, Options{CheckpointEvery: 128}, 308)
	cases = append(cases, singleStripeCase{"empty", empty.ix, empty.pool, []*model.Query{
		(&model.Query{K: 3}).TextTerm(empty.textAttrs[0], "canon").NumTerm(empty.numAttrs[0], 5)}})
	return cases
}

// TestPlanSingleStripe covers the single-stripe geometry at SearchParallelism
// 1 and 8: brute-force answers, one worker, one stripe, no pinned page left.
func TestPlanSingleStripe(t *testing.T) {
	for _, c := range singleStripeCases(t) {
		for _, par := range []int{1, 8} {
			c.ix.SetSearchParallelism(par)
			if got := c.ix.planShape().workers; got != 1 {
				t.Fatalf("%s par %d: workers = %d, want 1", c.name, par, got)
			}
			for qi, q := range c.queries {
				got, stats, err := c.ix.Search(q, nil)
				if err != nil {
					t.Fatalf("%s par %d query %d: %v", c.name, par, qi, err)
				}
				if want := bruteForceIndex(t, c.ix, q, metric.Default()); !identicalResults(got, want) {
					t.Fatalf("%s par %d query %d: diverged from brute force\n got %v\nwant %v", c.name, par, qi, got, want)
				}
				if stats.Workers != 1 || stats.StripesTotal != 1 {
					t.Fatalf("%s par %d query %d: %d workers over %d stripes, want 1 over 1",
						c.name, par, qi, stats.Workers, stats.StripesTotal)
				}
				if n := c.pool.PinnedFrames(); n != 0 {
					t.Fatalf("%s par %d query %d: %d pages left pinned", c.name, par, qi, n)
				}
			}
		}
	}
}

// TestPlanStatsInvariants holds the plan counters to each other on every
// geometry and worker count: the stripe total is the real stripe count, the
// worker profiles account for every stripe, and the executed worker count is
// the one planShape reports.
func TestPlanStatsInvariants(t *testing.T) {
	striped := stripedFixture(t, 2000, 128, 309)
	straddleDeletes(t, striped)
	cases := append(singleStripeCases(t), singleStripeCase{"striped", striped.ix, striped.pool,
		[]*model.Query{striped.randQuery(t, 1, 1), striped.randQuery(t, 2, 5), striped.randQuery(t, 3, 10)}})
	for _, c := range cases {
		wantStripes := 1
		if c.name == "striped" {
			wantStripes = len(c.ix.ckpts)
		}
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			c.ix.SetSearchParallelism(par)
			for qi, q := range c.queries {
				_, st, err := c.ix.Search(q, nil)
				if err != nil {
					t.Fatalf("%s par %d query %d: %v", c.name, par, qi, err)
				}
				var claimed int64
				for _, wp := range st.WorkerProfiles {
					claimed += wp.Stripes
				}
				switch {
				case st.StripesTotal != wantStripes:
					t.Errorf("%s par %d query %d: StripesTotal %d, want %d", c.name, par, qi, st.StripesTotal, wantStripes)
				case claimed+int64(st.StripesSkipped) != int64(st.StripesTotal):
					t.Errorf("%s par %d query %d: %d claimed + %d skipped != %d stripes",
						c.name, par, qi, claimed, st.StripesSkipped, st.StripesTotal)
				case len(st.WorkerProfiles) != st.Workers || st.Workers != c.ix.planShape().workers:
					t.Errorf("%s par %d query %d: %d profiles, %d workers, planShape %d",
						c.name, par, qi, len(st.WorkerProfiles), st.Workers, c.ix.planShape().workers)
				}
			}
		}
	}
}

// TestPlanShapeWorkers pins the worker count a search runs with: the
// configured parallelism, clamped to the stripe count, and one worker while
// the tuple list holds fewer than two full stripes.
func TestPlanShapeWorkers(t *testing.T) {
	fx := newFixture(t, 1000, Options{CheckpointEvery: 64, SearchParallelism: 4}, 305)
	if got := fx.ix.planShape().workers; got != 4 {
		t.Fatalf("workers = %d, want 4", got)
	}
	fx.ix.SetSearchParallelism(1)
	if got := fx.ix.planShape().workers; got != 1 {
		t.Fatalf("workers with parallelism 1 = %d, want 1", got)
	}
	fx.ix.SetSearchParallelism(0)
	if got, want := fx.ix.planShape().workers, min(runtime.GOMAXPROCS(0), len(fx.ix.ckpts)); got != want {
		t.Fatalf("workers with parallelism 0 = %d, want %d", got, want)
	}
	fx.ix.SetSearchParallelism(1 << 20) // clamped to the stripe count
	if got, n := fx.ix.planShape().workers, len(fx.ix.ckpts); got != n {
		t.Fatalf("workers = %d, want stripe count %d", got, n)
	}
	short := newFixture(t, 127, Options{CheckpointEvery: 64, SearchParallelism: 4}, 310)
	if got := short.ix.planShape().workers; got != 1 {
		t.Fatalf("workers under two full stripes = %d, want 1", got)
	}
}

// TestConcurrentSearchUpdate hammers parallel searches against concurrent
// inserts and deletes; run with -race. Queries and rows are pre-generated so
// the fixture's rng stays single-threaded.
func TestConcurrentSearchUpdate(t *testing.T) {
	fx := stripedFixture(t, 2000, 128, 306)
	fx.ix.opts.SearchParallelism = 4
	m := metric.Default()
	queries := make([]*model.Query, 32)
	for i := range queries {
		queries[i] = fx.randQuery(t, 2, 6)
	}
	rows := make([]map[model.AttrID]model.Value, 200)
	for i := range rows {
		rows[i] = fx.randValues()
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, _, err := fx.ix.Search(queries[(g*7+i)%len(queries)], m); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, row := range rows {
			if _, err := fx.ix.Insert(row); err != nil {
				errc <- err
				return
			}
			if i%3 == 0 {
				if err := fx.ix.Delete(model.TID(i * 5)); err != nil && err != ErrNotFound {
					errc <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The index is still coherent after the storm.
	q := queries[0]
	got, _, err := fx.ix.Search(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(t, fx, q, m); !sameDistances(got, want) {
		t.Fatal("post-storm search diverged from brute force")
	}
}

// --- benchmarks -------------------------------------------------------------

var (
	benchFxOnce sync.Once
	benchFx     *fixture
	benchQs     []*model.Query
)

// benchFixture is shared across the plan benchmarks: building it dominates
// any single measurement.
func benchFixture(b *testing.B) (*fixture, []*model.Query) {
	benchFxOnce.Do(func() {
		benchFx = newFixture(b, 16384, Options{CheckpointEvery: 512}, 400)
		benchQs = make([]*model.Query, 16)
		for i := range benchQs {
			benchQs[i] = benchFx.randQuery(b, 3, 10)
		}
	})
	return benchFx, benchQs
}

func benchmarkPlan(b *testing.B, ix *Index, queries []*model.Query, par int) {
	m := metric.Default()
	ix.SetSearchParallelism(par)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(queries[i%len(queries)], m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkStriped(b *testing.B, par int) {
	fx, queries := benchFixture(b)
	benchmarkPlan(b, fx.ix, queries, par)
}

func BenchmarkSearchParallel1(b *testing.B) { benchmarkStriped(b, 1) }
func BenchmarkSearchParallel4(b *testing.B) { benchmarkStriped(b, 4) }
func BenchmarkSearchParallel8(b *testing.B) { benchmarkStriped(b, 8) }

// BenchmarkSearchSingleStripe scans the same data as one origin-anchored
// stripe (no checkpoints): against BenchmarkSearchParallel1 it prices the
// per-stripe cursor reopening.
func BenchmarkSearchSingleStripe(b *testing.B) {
	fx := newFixture(b, 16384, Options{CheckpointEvery: 512}, 400)
	queries := make([]*model.Query, 16)
	for i := range queries {
		queries[i] = fx.randQuery(b, 3, 10)
	}
	dropCheckpoints(fx.ix)
	benchmarkPlan(b, fx.ix, queries, 1)
}
