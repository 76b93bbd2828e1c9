package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva"
)

// spec is one named workload. The names are fixed: later issues refer to
// them.
type spec struct {
	name       string
	why        string
	fileBacked bool
	churn      bool
	serve      bool
	// cacheShare, when set, reopens the loaded store with a pool of this
	// share of the table+index bytes (search-cold); otherwise cacheBytes is
	// the pool size (0 = the engine's 10 MiB default).
	cacheShare float64
	cacheBytes int64
}

// coldCacheShare is the paper's 10 MiB cache over 355 MB of data.
const coldCacheShare = 0.028

var specs = []spec{
	{
		name:       "search-warm",
		why:        "pool-resident in-memory store, 1 client: pure CPU, where a filter-kernel, plan or codec change must show in wall time",
		cacheBytes: 64 << 20,
	},
	{
		name:       "search-cold",
		why:        "same data and query stream, file-backed with a pool of 2.8% of the data: prices storage, table fetches and CRC checks",
		fileBacked: true,
		cacheShare: coldCacheShare,
	},
	{
		name:       "churn",
		why:        "delete 60% then regrow with searches beside the writes: cleaning and growth rebuilds, checkpoints, Sync every 256 writes",
		fileBacked: true,
		churn:      true,
	},
	{
		name:       "serve-closed",
		why:        "the search-warm store behind internal/server on loopback, 2 closed-loop clients: JSON, admission and concurrency below it",
		cacheBytes: 64 << 20,
		serve:      true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scale sizes a run. "bench" is what BENCHMARK.json runs: sized so that a
// run with its three set-ups stays near twenty seconds. "full" is the
// issue's sizing (60,000 / 30,000 tuples) for a manual run; "smoke" is the
// unit-test pass.
type scale struct {
	tuples      int // search-warm, search-cold, serve-closed
	churnTuples int
	queries     int     // distinct searches generated for a read run
	minOps      int     // a measured read phase runs at least this many
	seconds     float64 // default measured time
	setups      int     // set-ups timed per plain run; the median is reported
	traceOps    int     // operations one traced pass replays (read workloads)
	cellQueries int     // searches re-run on the par1 and codec1 stores
	warmup      int     // untimed operations before each measured phase
}

var scales = map[string]scale{
	"smoke": {tuples: 1000, churnTuples: 300, queries: 100, minOps: 100, seconds: 0, setups: 1, traceOps: 100, cellQueries: 30, warmup: 10},
	"bench": {tuples: 10000, churnTuples: 3000, queries: 6000, minOps: 400, seconds: 16, setups: 3, traceOps: 400, cellQueries: 300, warmup: 100},
	"full":  {tuples: 60000, churnTuples: 30000, queries: 6000, minOps: 1600, seconds: 24, setups: 1, traceOps: 400, cellQueries: 300, warmup: 100},
}

const (
	loadBatch    = 1000
	sampleChecks = 16 // searches per run compared with brute force
)

// built is a loaded store with the benchmark's own record of what is in it.
type built struct {
	st   *iva.Store
	root string   // temp directory holding the store; "" for an in-memory store
	tids []uint32 // row handle → tuple id (valid while the handle is live)

	setupS float64 // define + load + Rebuild + Sync
	loadS  float64 // the InsertBatch part
	buildS float64 // the Rebuild part
	syncs  int

	priorWrites int64 // physical page writes of the store's earlier openings
}

// storeDir is where the store lives: Create wants a directory with no store
// in it yet, so it is a child of the temp root.
func (b *built) storeDir() string {
	if b.root == "" {
		return ""
	}
	return filepath.Join(b.root, "s")
}

func (b *built) close() error {
	err := b.st.Close()
	if b.root != "" {
		if rerr := os.RemoveAll(b.root); err == nil {
			err = rerr
		}
	}
	return err
}

// env is what every phase of one run shares.
type env struct {
	spec    spec
	sc      scale
	seed    int64
	seconds float64
	procs   int
	tmp     string // directory under which stores are created

	g       *generator
	rows    []*row    // handle → row; churn appends to it
	ivaRows []iva.Row // the set-up rows in API form, built outside any timer
	met     bruteMetric
}

func newEnv(sp spec, sc scale, seed int64, seconds float64, procs int, tmp string) *env {
	e := &env{spec: sp, sc: sc, seed: seed, seconds: seconds, procs: procs, tmp: tmp, g: newGenerator(seed)}
	n := sc.tuples
	if sp.churn {
		n = sc.churnTuples
	}
	e.rows = e.g.take(n)
	e.ivaRows = make([]iva.Row, n)
	for i, r := range e.rows {
		e.ivaRows[i] = e.apiRow(r)
	}
	e.met = newBruteMetric()
	return e
}

func (e *env) apiRow(r *row) iva.Row {
	out := make(iva.Row, len(r.cells))
	for _, c := range r.cells {
		if c.strs != nil {
			out[e.g.names[c.attr]] = iva.Strings(c.strs...)
		} else {
			out[e.g.names[c.attr]] = iva.Num(c.num)
		}
	}
	return out
}

func (e *env) apiQuery(q *query) *iva.Query {
	out := iva.NewQuery(queryK)
	for _, t := range q.terms {
		if t.str != "" {
			out.WhereText(e.g.names[t.attr], t.str)
		} else {
			out.WhereNum(e.g.names[t.attr], t.num)
		}
	}
	return out
}

// options are the store options of this workload; everything not set here
// stays at the engine's defaults (striped plan with GOMAXPROCS workers, zone
// maps on, codec 0, DegradeReads, β = 0.02, growth factor 2, L2/EQU).
func (e *env) options() iva.Options {
	return iva.Options{CacheBytes: e.spec.cacheBytes}
}

// setup runs the timed set-up: define the 1,147 attributes, bulk-load the
// rows in batches of 1,000, Rebuild, Sync. A cold workload then closes the
// store and reopens it with the small pool, outside the timer.
func (e *env) setup(opts iva.Options, fileBacked bool) (*built, error) {
	b := &built{tids: make([]uint32, len(e.ivaRows), 2*len(e.ivaRows))}
	if fileBacked {
		if err := os.MkdirAll(e.tmp, 0o755); err != nil {
			return nil, err
		}
		root, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			return nil, err
		}
		b.root = root
	}
	start := time.Now()
	st, err := iva.Create(b.storeDir(), opts)
	if err != nil {
		os.RemoveAll(b.root)
		return nil, err
	}
	fail := func(err error) (*built, error) {
		st.Close()
		os.RemoveAll(b.root)
		return nil, err
	}
	for r, name := range e.g.names {
		kind := iva.Text
		if e.g.numeric[r] {
			kind = iva.Numeric
		}
		if err := st.DefineAttr(name, kind); err != nil {
			return fail(err)
		}
	}
	loadStart := time.Now()
	for lo := 0; lo < len(e.ivaRows); lo += loadBatch {
		hi := lo + loadBatch
		if hi > len(e.ivaRows) {
			hi = len(e.ivaRows)
		}
		tids, err := st.InsertBatch(e.ivaRows[lo:hi])
		if err != nil {
			return fail(err)
		}
		copy(b.tids[lo:hi], tids)
	}
	b.loadS = time.Since(loadStart).Seconds()
	buildStart := time.Now()
	if err := st.Rebuild(); err != nil {
		return fail(err)
	}
	b.buildS = time.Since(buildStart).Seconds()
	if err := st.Sync(); err != nil {
		return fail(err)
	}
	b.syncs = 1
	b.setupS = time.Since(start).Seconds()
	b.st = st
	return b, nil
}

// reopen closes a file-backed store and opens it again under other options.
func (b *built) reopen(opts iva.Options) error {
	b.priorWrites += b.st.Stats().IO.PhysWrites
	if err := b.st.Close(); err != nil {
		return err
	}
	st, err := iva.Open(b.storeDir(), opts)
	if err != nil {
		return err
	}
	b.st = st
	return nil
}

// setupMeasured is setup followed by the workload's untimed adjustments.
func (e *env) setupMeasured() (*built, error) {
	b, err := e.setup(e.options(), e.spec.fileBacked)
	if err != nil {
		return nil, err
	}
	if e.spec.cacheShare > 0 {
		s := b.st.Stats()
		opts := e.options()
		opts.CacheBytes = coldCacheBytes(s.TableBytes+s.IndexBytes, e.spec.cacheShare)
		if err := b.reopen(opts); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// coldCacheBytes is share of the data in whole 4 KiB pages, at least 16.
func coldCacheBytes(dataBytes int64, share float64) int64 {
	pages := int64(float64(dataBytes)*share) / 4096
	if pages < 16 {
		pages = 16
	}
	return pages * 4096
}

// readQueries generates the read workloads' query stream: n searches, each
// drawn from a uniformly chosen stored row.
func (e *env) readQueries(n int, stream uint64) []*query {
	r := newRNG(e.seed, stream)
	out := make([]*query, n)
	for i := range out {
		out[i] = queryFrom(r, e.rows[r.intn(len(e.rows))])
	}
	return out
}

// opRec is what one executed operation leaves behind. The plain pass fills
// only the latency and the error; the traced pass fills the rest.
type opRec struct {
	kind       opKind
	start, end time.Time // client.op
	hStart     time.Time // server.request (serve-closed)
	hEnd       time.Time
	sStart     time.Time // store.<kind>
	sEnd       time.Time
	qs         iva.QueryStats
	results    int
	respBytes  int
	rebuilds   int64 // how far StoreStats.Rebuilds advanced during the call
	shed       bool
	err        error
}

// answer is a search result kept for the brute-force comparison.
type answer struct {
	q    *query
	got  []iva.Result
	live []int // churn: the live handles when the search ran (nil = all set-up rows)
	tids []uint32
}

// searcher runs one search of the stream. traced asks it to fill the span
// boundaries and QueryStats of rec; every searcher fills rec.err/shed.
type searcher interface {
	search(id int, q *query, traced bool, rec *opRec) []iva.Result
}

// direct runs searches in process through the public Store API.
type direct struct {
	e  *env
	st *iva.Store
}

func (d direct) search(_ int, q *query, traced bool, rec *opRec) []iva.Result {
	aq := d.e.apiQuery(q)
	if traced {
		rec.sStart = time.Now()
	}
	res, qs, err := d.st.Search(aq)
	if traced {
		rec.sEnd = time.Now()
		rec.qs = qs
	}
	rec.results = len(res)
	rec.err = err
	return res
}

// phase is the outcome of one measured pass over searches.
type phase struct {
	recs []opRec // in stream order, only the executed prefix
	wall time.Duration
}

// latenciesMS returns the latencies, in ms, of the records of the given kinds.
func latenciesMS(recs []opRec, kinds ...opKind) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		for _, k := range kinds {
			if r.kind == k {
				out = append(out, ms(r.end.Sub(r.start)))
				break
			}
		}
	}
	return out
}

// failedOps counts operations that returned an error or were shed.
func failedOps(recs []opRec) int {
	n := 0
	for i := range recs {
		if recs[i].err != nil || recs[i].shed {
			n++
		}
	}
	return n
}

// runSearches is the closed loop of the read workloads: clients goroutines
// each take the next query of the stream, wait for its answer, and go on,
// until at least minOps are done and the duration has passed. keep names the
// stream positions whose answers are kept for the correctness check.
func runSearches(s searcher, queries []*query, clients, minOps int, d time.Duration, traced bool, keep map[int]*answer) *phase {
	type indexed struct {
		i   int
		rec opRec
	}
	perClient := make([][]indexed, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Since(start) >= d {
					return
				}
				q := queries[i%len(queries)] // a fast box wraps around the stream
				rec := opRec{kind: opSearch, start: time.Now()}
				res := s.search(i, q, traced, &rec)
				rec.end = time.Now()
				if a := keep[i]; a != nil {
					a.q, a.got = q, res
				}
				perClient[c] = append(perClient[c], indexed{i, rec})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	// Positions are taken in order and the stop condition never turns false
	// again, so the executed positions are exactly 0..n-1.
	n := 0
	for _, l := range perClient {
		n += len(l)
	}
	recs := make([]opRec, n)
	for _, l := range perClient {
		for _, x := range l {
			recs[x.i] = x.rec
		}
	}
	return &phase{recs: recs, wall: wall}
}

// rateRounds is how many rounds a read phase is cut into for ops_per_s.
const rateRounds = 8

// roundRates cuts a read phase into rateRounds rounds of equally many
// operations, in order of completion, and returns the operations completed
// per second in each. A phase of fewer than two operations per round is a
// single round.
func roundRates(p *phase) []float64 {
	per := len(p.recs) / rateRounds
	if per < 2 {
		return []float64{float64(len(p.recs)) / p.wall.Seconds()}
	}
	ends := make([]time.Time, len(p.recs))
	start := p.recs[0].start
	for i := range p.recs {
		ends[i] = p.recs[i].end
		if p.recs[i].start.Before(start) {
			start = p.recs[i].start
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	rates := make([]float64, rateRounds)
	for r := range rates {
		rates[r] = float64(per) / ends[(r+1)*per-1].Sub(start).Seconds()
		start = ends[(r+1)*per-1]
	}
	return rates
}

// sampleIndexes spreads sampleChecks positions over the first span ops.
func sampleIndexes(span int) map[int]*answer {
	keep := make(map[int]*answer, sampleChecks)
	for j := 0; j < sampleChecks; j++ {
		keep[j*span/sampleChecks+span/(2*sampleChecks)] = &answer{}
	}
	return keep
}

// churnRunner executes churn ops against the store and keeps the
// benchmark's own record of the live rows.
type churnRunner struct {
	e    *env
	b    *built
	live *liveSet
}

// run executes one cycle's ops. In a traced run it reads StoreStats after
// every write to attribute rebuilds to the call during which they happened.
func (c *churnRunner) run(ops []op, rows []*row, traced bool, keep map[int]*answer) *phase {
	st := c.b.st
	recs := make([]opRec, len(ops))
	var rebuilds int64
	if traced {
		rebuilds = st.Stats().Rebuilds
	}
	start := time.Now()
	for i, o := range ops {
		rec := &recs[i]
		rec.kind = o.kind
		switch o.kind {
		case opSearch:
			rec.start = time.Now()
			res := direct{c.e, st}.search(i, o.q, traced, rec)
			rec.end = time.Now()
			if a := keep[i]; a != nil {
				a.q, a.got = o.q, res
				a.live = append([]int(nil), c.live.handles...)
				a.tids = append([]uint32(nil), c.b.tids...)
			}
			continue
		case opInsert:
			r := c.e.apiRow(rows[o.fresh])
			rec.start = time.Now()
			tid, err := st.Insert(r)
			rec.end = time.Now()
			rec.err = err
			c.setTID(o.fresh, tid)
			c.live.add(o.fresh)
		case opDelete:
			tid := c.b.tids[o.handle]
			rec.start = time.Now()
			rec.err = st.Delete(tid)
			rec.end = time.Now()
			c.live.remove(o.handle)
		case opUpdate:
			r := c.e.apiRow(rows[o.fresh])
			tid := c.b.tids[o.handle]
			rec.start = time.Now()
			ntid, err := st.Update(tid, r)
			rec.end = time.Now()
			rec.err = err
			c.setTID(o.fresh, ntid)
			c.live.remove(o.handle)
			c.live.add(o.fresh)
		case opSync:
			rec.start = time.Now()
			rec.err = st.Sync()
			rec.end = time.Now()
			c.b.syncs++
		}
		rec.sStart, rec.sEnd = rec.start, rec.end
		if traced && o.kind != opSync {
			now := st.Stats().Rebuilds
			rec.rebuilds, rebuilds = now-rebuilds, now
		}
	}
	return &phase{recs: recs, wall: time.Since(start)}
}

func (c *churnRunner) setTID(handle int, tid uint32) {
	for len(c.b.tids) <= handle {
		c.b.tids = append(c.b.tids, 0)
	}
	c.b.tids[handle] = tid
}

// churnSamples picks sampleChecks of a cycle's searches, spread over both
// phases.
func churnSamples(ops []op) map[int]*answer {
	var searches []int
	for i, o := range ops {
		if o.kind == opSearch {
			searches = append(searches, i)
		}
	}
	keep := make(map[int]*answer, sampleChecks)
	for j := 0; j < sampleChecks && len(searches) > 0; j++ {
		keep[searches[j*len(searches)/sampleChecks]] = &answer{}
	}
	return keep
}

// checkAnswers compares every kept answer with brute force over the
// benchmark's own rows and returns how many were checked and how many
// differ. An answer that was never filled (its op failed) counts as wrong.
func (e *env) checkAnswers(keep map[int]*answer, rows []*row, tids []uint32) (checked, wrong int, detail string) {
	idx := make([]int, 0, len(keep))
	for i := range keep {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		a := keep[i]
		checked++
		if a.q == nil {
			wrong++
			detail = fmt.Sprintf("op %d: no answer", i)
			continue
		}
		at := tids
		if a.tids != nil {
			at = a.tids
		}
		want := e.met.topK(a.q, rows, a.live, at)
		if msg := diffAnswers(a.got, want); msg != "" {
			wrong++
			detail = fmt.Sprintf("op %d: %s", i, msg)
		}
	}
	return checked, wrong, detail
}
