package iva

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/obs"
	"github.com/sparsewide/iva/internal/repl"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// ErrNotFound is returned for operations on tuple ids that are not live.
var ErrNotFound = errors.New("iva: tuple not found")

// ErrFollower is returned for local mutations on a store running in follower
// mode: its files mirror a primary's synced prefix, and a local write would
// fork the replica. Write to the primary instead.
var ErrFollower = errors.New("iva: store is a replication follower (read-only)")

// Options configure a Store.
type Options struct {
	// Alpha is the relative vector length α controlling the filter/refine
	// I/O trade-off (paper default 20%).
	Alpha float64
	// N is the paper's n-gram length (default 2, the best choice for short
	// text per Fig. 16); with Alpha it sets each string's element width.
	N int
	// CacheBytes is the shared file-cache size over the table and index
	// files (paper setup: 10 MiB).
	CacheBytes int64
	// Metric names the combining function: "L1", "L2" (default) or "Linf".
	Metric string
	// Weights names the attribute weighting scheme: "EQU" (default) or
	// "ITF" (inverse tuple frequency).
	Weights string
	// NDFPenalty is the constant difference charged when a queried
	// attribute is undefined in a tuple (paper example: 20).
	NDFPenalty float64
	// CleanThreshold is β: when deleted/total reaches it, the table and
	// index files are rebuilt to shed deleted tuples (§IV-B). Default 0.02.
	// Negative disables automatic rebuilds.
	CleanThreshold float64
	// AlphaPerAttr overrides the relative vector length for individual
	// attributes by name (the paper's attribute list carries α per
	// attribute). Overrides take effect when the named attribute exists at
	// (re)build time; Rebuild applies them to attributes registered since.
	AlphaPerAttr map[string]float64
	// GrowthRebuildFactor triggers a rebuild when the live tuple count
	// exceeds this multiple of the count at the last build — §III-C's
	// "periodically renewing all approximation codes of an attribute with
	// the new relative domain": numeric quantizer domains, list-type
	// choices and packed widths are all re-derived as the data grows.
	// Default 2 (amortized-constant doubling); negative disables.
	GrowthRebuildFactor float64
	// SlowQueryThreshold enables the slow-query log: queries whose wall
	// time meets the threshold are captured with their full per-term trace
	// (see WriteSlowQueries) in a ring of the latest 64. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SearchParallelism caps the worker count of the striped filter plan.
	// 0 (the default) selects runtime.GOMAXPROCS; 1 = one worker, which
	// starts no goroutine. Results are identical either way — the plan is
	// byte-for-byte deterministic at any worker count.
	SearchParallelism int
	// Codec selects the block codec vector lists are stored under: 0 keeps
	// the raw bit-packed layout, 1 seals Type I/II lists into word-aligned
	// packed blocks with per-block skip headers and delta-coded tuple-id
	// gaps. Answers are byte-identical under either codec; the choice trades
	// build-time transcoding for smaller filter reads. Takes effect at the
	// next build or rebuild; positional (Type III/IV) lists always stay raw.
	Codec int
	// deviceHook, when set, wraps every raw device the store opens (keyed by
	// file name) before the tracking layer. It is the fault-
	// injection seam store-level crash and corruption tests use; unexported
	// because only package-internal tests may reach it.
	deviceHook func(name string, dev storage.Device) storage.Device
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.20
	}
	if o.N == 0 {
		o.N = 2
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 10 << 20
	}
	if o.Metric == "" {
		o.Metric = "L2"
	}
	if o.Weights == "" {
		o.Weights = "EQU"
	}
	if o.NDFPenalty == 0 {
		o.NDFPenalty = metric.DefaultNDFPenalty
	}
	if o.CleanThreshold == 0 {
		o.CleanThreshold = 0.02
	}
	if o.GrowthRebuildFactor == 0 {
		o.GrowthRebuildFactor = 2
	}
	return o
}

// Store is a sparse wide table with its iVA-file index.
type Store struct {
	dir  string // "" for in-memory stores
	opts Options

	mu   sync.Mutex
	pool *storage.Pool
	// The generation the store runs on; install is the one place it changes.
	generation

	// engineMu guards the generation: readers hold it shared for the duration
	// of a query so that the files cannot be closed, or rewritten in place,
	// under them; install takes it exclusively for the swap, and an in-place
	// delta apply for the whole of its writing.
	engineMu sync.RWMutex

	builtTuples int64 // live count at the last (re)build
	closed      bool

	reg    *obs.Registry
	traces traceLog
	disk   storage.DiskModel
	om     storeMetrics

	// Replication state. replP is non-nil on a delta-shipping primary, fol on
	// a log-applying follower.
	replP *replPrimary
	fol   *followerState
	// replicaCur is non-nil when the directory carries a follower cursor
	// (repl-state.json), whether or not a poll loop is attached: the durable
	// bytes are a synced prefix of some primary, and any local mutation —
	// including a bare Sync's superblock rewrite — would fork them from the
	// generation the cursor names. Such a store is read-only even under
	// plain Open (e.g. `ivatool -dir <replica> insert` while the follower
	// process serves the same directory).
	replicaCur *followerDurableState
}

// followerReadOnly reports whether local mutations must be refused: either a
// live follower poll loop owns the store, or the directory holds a follower
// cursor that local writes would invalidate.
func (s *Store) followerReadOnly() bool {
	return s.fol != nil || s.replicaCur != nil
}

// storeMetrics caches the store's registry handles so the hot path never
// takes the registry lock.
type storeMetrics struct {
	queryErrs   *obs.Counter
	slowQueries *obs.Counter
	inserts     *obs.Counter
	deletes     *obs.Counter
	updates     *obs.Counter
	rebuilds    [numRebuildCauses]*obs.Counter
	scanned     *obs.Counter
	accesses    *obs.Counter
	corruptSegs *obs.Counter
	queryDur    *obs.Histogram
	filterDur   *obs.Histogram
	refineDur   *obs.Histogram
	mergeDur    *obs.Histogram
	filterReads *obs.Histogram
	refineReads *obs.Histogram
}

// physReadBuckets bound per-query physical page reads per phase: powers of
// two from the all-cached query (0) to a badly I/O-bound scan.
var physReadBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// initObs wires the store into its metrics registry and arms the
// slow-query log.
func (s *Store) initObs() {
	s.reg = obs.NewRegistry()
	s.traces.threshold = s.opts.SlowQueryThreshold
	s.disk = storage.DefaultDiskModel()
	registerBuildInfo(s.reg)

	s.pool.RegisterPoolMetrics(s.reg, s.disk)

	s.om = storeMetrics{
		queryErrs:   s.reg.Counter("iva_query_errors_total", "Search queries that returned an error.", nil),
		slowQueries: s.reg.Counter("iva_slow_queries_total", "Queries at or above the slow-query threshold.", nil),
		inserts:     s.reg.Counter("iva_inserts_total", "Tuples inserted.", nil),
		deletes:     s.reg.Counter("iva_deletes_total", "Tuples deleted.", nil),
		updates:     s.reg.Counter("iva_updates_total", "Tuples updated.", nil),
		scanned:     s.reg.Counter("iva_query_scanned_tuples_total", "Tuple-list entries filtered across all queries.", nil),
		accesses:    s.reg.Counter("iva_query_table_accesses_total", "Random table-file accesses across all queries.", nil),
		corruptSegs: s.reg.Counter("iva_corrupt_segments_total", "Corrupt vector-list segments queries degraded past.", nil),
		queryDur:    s.reg.Histogram("iva_query_duration_seconds", "End-to-end search latency.", nil, nil),
		filterDur: s.reg.Histogram("iva_query_phase_duration_seconds", "Per-phase search latency.",
			obs.Labels{"phase": "filter"}, nil),
		refineDur: s.reg.Histogram("iva_query_phase_duration_seconds", "Per-phase search latency.",
			obs.Labels{"phase": "refine"}, nil),
		mergeDur: s.reg.Histogram("iva_query_phase_duration_seconds", "Per-phase search latency.",
			obs.Labels{"phase": "merge"}, nil),
		filterReads: s.reg.Histogram("iva_query_phase_phys_reads", "Physical page reads per query, by phase.",
			obs.Labels{"phase": "filter"}, physReadBuckets),
		refineReads: s.reg.Histogram("iva_query_phase_phys_reads", "Physical page reads per query, by phase.",
			obs.Labels{"phase": "refine"}, physReadBuckets),
	}
	for c, name := range rebuildCauseNames {
		s.om.rebuilds[c] = s.reg.Counter("iva_rebuilds_total", "Table/index file rebuilds, by what triggered them.",
			obs.Labels{"cause": name})
	}

	// Store-shape gauges read live under the engine lock at scrape time.
	s.reg.GaugeFunc("iva_tuples_live", "Live tuples in the store.", nil, func() float64 {
		s.engineMu.RLock()
		defer s.engineMu.RUnlock()
		return float64(s.tbl.Live())
	})
	s.reg.GaugeFunc("iva_tuples_deleted", "Deleted tuples awaiting cleaning.", nil, func() float64 {
		s.engineMu.RLock()
		defer s.engineMu.RUnlock()
		return float64(s.ix.Deleted())
	})
	s.reg.GaugeFunc("iva_attributes", "Registered attributes.", nil, func() float64 {
		s.engineMu.RLock()
		defer s.engineMu.RUnlock()
		return float64(s.cat.NumAttrs())
	})
	s.reg.GaugeFunc("iva_table_bytes", "Table file size.", nil, func() float64 {
		s.engineMu.RLock()
		defer s.engineMu.RUnlock()
		return float64(s.tbl.Bytes())
	})
	s.reg.GaugeFunc("iva_index_bytes", "iVA-file size.", nil, func() float64 {
		s.engineMu.RLock()
		defer s.engineMu.RUnlock()
		return float64(s.ix.SizeBytes())
	})
}

// registerBuildInfo publishes the binary's build metadata as a constant-1
// gauge whose labels carry the interesting values, the Prometheus convention
// for joining version info onto other series.
func registerBuildInfo(reg *obs.Registry) {
	labels := obs.Labels{"go_version": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			labels["module"] = bi.Main.Path
		}
		if bi.Main.Version != "" {
			labels["version"] = bi.Main.Version
		}
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" && st.Value != "" {
				rev := st.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
				labels["revision"] = rev
			}
		}
	}
	reg.GaugeFunc("iva_build_info", "Build metadata; the value is always 1.", labels, func() float64 { return 1 })
}

const (
	tableFileName   = "table.swt"
	indexFileName   = "iva.idx"
	catalogFileName = "catalog.bin"
	// newSuffix marks a file of a generation written beside the live one,
	// between its opening and install's rename.
	newSuffix = ".new"
)

// storeFile is one of a store's two files: the pooled view the engines read
// and write through and, beside it, the write tracker under the pool — what a
// replication primary cuts its deltas from (disarmed, and free, on any other
// store) and what an applied delta is read back through, below the cache.
// name is the one the file has in the store directory now.
type storeFile struct {
	*storage.File
	dev  *storage.TrackDevice
	name string
}

// generation is everything a query runs against: a catalog, the two files,
// the engines open over them and the metric bound to both.
type generation struct {
	cat     *table.Catalog
	tbl     *table.Table
	tblFile storeFile
	ix      *core.Index
	ixFile  storeFile
	met     *metric.Metric
}

// coreOptions resolves the store options against a catalog (per-attribute α
// overrides are keyed by name publicly, by id internally).
func (s *Store) coreOptions(cat *table.Catalog) core.Options {
	opts := core.Options{
		Alpha: s.opts.Alpha, N: s.opts.N,
		SearchParallelism: s.opts.SearchParallelism,
		Codec:             s.opts.Codec,
	}
	if len(s.opts.AlphaPerAttr) > 0 {
		opts.AlphaOverride = make(map[model.AttrID]float64, len(s.opts.AlphaPerAttr))
		for name, alpha := range s.opts.AlphaPerAttr {
			if id, ok := cat.Lookup(name); ok {
				opts.AlphaOverride[id] = alpha
			}
		}
	}
	return opts
}

// newStore returns a store with its pool and metrics and no generation yet.
func newStore(dir string, opts Options) *Store {
	s := &Store{dir: dir, opts: opts, pool: storage.NewPool(0, opts.CacheBytes)}
	s.initObs()
	return s
}

// Create makes a new store in dir, or a volatile in-memory store when dir
// is empty. An existing directory must not already contain a store.
func Create(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("iva: create %s: %w", dir, err)
		}
		if _, err := os.Stat(filepath.Join(dir, catalogFileName)); err == nil {
			return nil, fmt.Errorf("iva: store already exists in %s", dir)
		}
	}
	s := newStore(dir, opts)
	if err := s.attach(table.NewCatalog(), true); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to a store previously created in dir, first finishing
// whatever a crash interrupted there (recoverDir).
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if dir == "" {
		return nil, fmt.Errorf("iva: Open requires a directory; use Create for in-memory stores")
	}
	redo, err := recoverDir(dir)
	if err != nil {
		return nil, err
	}
	s := newStore(dir, opts)
	if redo != nil {
		if err := s.applyDelta(redo); err != nil {
			return nil, fmt.Errorf("iva: recover follower journal: %w", err)
		}
	} else {
		blob, err := os.ReadFile(filepath.Join(dir, catalogFileName))
		if err != nil {
			return nil, fmt.Errorf("iva: open catalog: %w", err)
		}
		cat, err := table.DecodeCatalog(blob)
		if err != nil {
			return nil, err
		}
		if err := s.attach(cat, false); err != nil {
			return nil, err
		}
	}
	if cur, err := loadFollowerState(dir); err == nil {
		s.replicaCur = &cur
	}
	return s, nil
}

// recoverDir brings a store directory out of the states a crash can leave it
// in (FORMAT.md § Directory states), before anything in it is opened. It is
// the only code that knows them.
//
// install renames a generation written beside the live one over it, the table
// first, and both new files are durable before that (table.Rebuild, core.Build
// and applyRanges each end in an fsync). So while table.swt.new exists the swap
// had not begun — the live pair is whole and the new files, finished or not,
// go — and iva.idx.new on its own is the second rename still owed.
//
// A follower's delta apply starts with a durable journal and ends with its
// removal: a journal still there is returned for the caller to apply again,
// which lands on exactly the generation the apply was committing. An
// unreadable one (disk corruption: it is written atomically) is dropped with
// the cursor zeroed, so that the follower's next poll is answered with a Full
// delta.
func recoverDir(dir string) (*repl.Delta, error) {
	newTbl, newIx := filepath.Join(dir, tableFileName+newSuffix), filepath.Join(dir, indexFileName+newSuffix)
	if _, err := os.Stat(newTbl); err == nil {
		if err := os.Remove(newTbl); err != nil {
			return nil, err
		}
		if err := os.Remove(newIx); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	} else if _, err := os.Stat(newIx); err == nil {
		if err := os.Rename(newIx, filepath.Join(dir, indexFileName)); err != nil {
			return nil, err
		}
	}
	journal := filepath.Join(dir, replJournalFile)
	blob, err := os.ReadFile(journal)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d, err := repl.DecodeDelta(blob)
	if err != nil {
		if err := saveFollowerState(dir, 0, 0); err != nil {
			return nil, err
		}
		return nil, os.Remove(journal)
	}
	return d, nil
}

// attach opens the store's two files under their own names and installs the
// generation over them: a new, empty one when create is set, the one the files
// hold otherwise. On an error it closes again what it had opened.
func (s *Store) attach(cat *table.Catalog, create bool) error {
	tblF, ixF, err := s.openPair("")
	if err != nil {
		return err
	}
	g, err := s.openEngines(cat, tblF, ixF, create)
	if err != nil {
		s.discard(tblF, ixF)
		return err
	}
	return s.install(g)
}

// openEngines puts a table, an index and a metric over an open pair of files:
// new ones when create is set, the ones the files hold otherwise.
func (s *Store) openEngines(cat *table.Catalog, tblF, ixF storeFile, create bool) (g generation, err error) {
	g = generation{cat: cat, tblFile: tblF, ixFile: ixF}
	if create {
		if g.tbl, err = table.New(tblF.File, cat); err == nil {
			g.ix, err = core.Build(g.tbl, ixF.File, s.coreOptions(cat))
		}
	} else {
		if g.tbl, err = table.Open(tblF.File, cat); err == nil {
			g.ix, err = core.Open(ixF.File, g.tbl, s.coreOptions(cat))
		}
	}
	if err == nil {
		g.met, err = s.newMetric(cat, g.tbl)
	}
	return g, err
}

// install makes g the generation the store runs on: the one place the engine
// pointers change. g arrives whole — files written and fsynced, engines open
// over them — in one of three ways. Written beside the live generation, under
// ".new" names (a rebuild, a follower's Full delta): queries ran on the old pair
// until now; the swap waits out those in flight, the old pair is closed, and
// the new files are renamed over the old names, table first (recoverDir
// finishes a swap a crash cut in half). Over the store's own files, written in
// place by a caller that took the engine lock exclusively before its first
// write and still holds it (an incremental delta): the swap is all there is to
// do. Or as the first generation of a store that has none (Create, Open).
// Caller holds s.mu.
func (s *Store) install(g generation) error {
	inPlace := g.tblFile.File == s.tblFile.File
	if !inPlace {
		s.engineMu.Lock()
	}
	g.tbl.PublishStats()
	old := s.generation
	s.generation, s.builtTuples = g, g.tbl.Live()
	if inPlace {
		return nil
	}
	s.engineMu.Unlock()
	s.discard(old.tblFile, old.ixFile)
	for _, f := range []*storeFile{&s.tblFile, &s.ixFile} {
		final, beside := strings.CutSuffix(f.name, newSuffix)
		if beside && s.dir != "" {
			if err := os.Rename(filepath.Join(s.dir, f.name), filepath.Join(s.dir, final)); err != nil {
				return err
			}
		}
		f.name = final
	}
	return nil
}

// openPair opens the table and index files under their names plus suffix.
func (s *Store) openPair(suffix string) (tblF, ixF storeFile, err error) {
	if tblF, err = s.openFile(tableFileName + suffix); err != nil {
		return storeFile{}, storeFile{}, err
	}
	if ixF, err = s.openFile(indexFileName + suffix); err != nil {
		s.discard(tblF)
		return storeFile{}, storeFile{}, err
	}
	return tblF, ixF, nil
}

// discard closes those of the files that are open — out of the pool, device
// closed — and removes what was written beside the live generation and never
// installed.
func (s *Store) discard(files ...storeFile) error {
	var errs []error
	for _, f := range files {
		if f.File == nil {
			continue
		}
		errs = append(errs, f.Close())
		if s.dir != "" && strings.HasSuffix(f.name, newSuffix) {
			os.Remove(filepath.Join(s.dir, f.name))
		}
	}
	return errors.Join(errs...)
}

func (s *Store) openFile(name string) (storeFile, error) {
	var dev storage.Device
	if s.dir == "" {
		dev = storage.NewMemDevice()
	} else {
		var err error
		if dev, err = storage.OpenFileDevice(filepath.Join(s.dir, name)); err != nil {
			return storeFile{}, err
		}
	}
	if s.opts.deviceHook != nil {
		dev = s.opts.deviceHook(name, dev)
	}
	// The outermost tracker records which byte ranges are written between
	// Syncs — the raw material of replication deltas.
	td := storage.NewTrackDevice(dev)
	return storeFile{File: storage.NewFile(s.pool, td), dev: td, name: name}, nil
}

func (s *Store) newMetric(cat *table.Catalog, tbl *table.Table) (*metric.Metric, error) {
	comb, err := metric.ByName(s.opts.Metric)
	if err != nil {
		return nil, err
	}
	var w metric.Weighter
	switch s.opts.Weights {
	case "EQU":
		w = metric.Equal{}
	case "ITF":
		w = metric.NewITF(tbl.Live, func(a model.AttrID) int64 {
			info, err := cat.Info(a)
			if err != nil {
				return 0
			}
			return info.DF
		})
	default:
		return nil, fmt.Errorf("iva: unknown weighting scheme %q", s.opts.Weights)
	}
	return &metric.Metric{Combiner: comb, Weighter: w, NDFPenalty: s.opts.NDFPenalty}, nil
}

// DefineAttr registers an attribute ahead of use (Insert also registers
// attributes implicitly from value kinds).
func (s *Store) DefineAttr(name string, kind Kind) error {
	if s.followerReadOnly() {
		return ErrFollower
	}
	_, err := s.catalog().AddAttr(name, kind.internal())
	return err
}

// catalog returns the running generation's catalog. The pointer is read under
// the engine lock, which install holds while it swaps the generation; the
// catalog itself has its own lock for AddAttr.
func (s *Store) catalog() *table.Catalog {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	return s.cat
}

// resolveRow maps names to ids, registering new attributes — a row's unseen
// names in sorted order, so the same calls assign the same ids, and with them
// write the same files, on every run.
func (s *Store) resolveRow(row Row) (map[model.AttrID]model.Value, error) {
	if len(row) == 0 {
		return nil, fmt.Errorf("iva: empty row")
	}
	cat := s.catalog()
	var unseen []string
	for name := range row {
		if _, ok := cat.Lookup(name); !ok {
			unseen = append(unseen, name)
		}
	}
	sort.Strings(unseen)
	for _, name := range unseen {
		if _, err := cat.AddAttr(name, row[name].v.Kind); err != nil {
			return nil, err
		}
	}
	out := make(map[model.AttrID]model.Value, len(row))
	for name, v := range row {
		id, err := cat.AddAttr(name, v.v.Kind)
		if err != nil {
			return nil, err
		}
		if err := v.v.Validate(); err != nil {
			return nil, fmt.Errorf("iva: attribute %q: %w", name, err)
		}
		out[id] = v.v
	}
	return out, nil
}

// Insert stores a row and returns its tuple id. New attribute names are
// registered with the kind of their value.
func (s *Store) Insert(row Row) (TID, error) { return s.writeRow(row, nil) }

// Update replaces a tuple's row under a fresh id, which is returned. On an
// error the old tuple is still there, with its old row.
func (s *Store) Update(tid TID, row Row) (TID, error) { return s.writeRow(row, &tid) }

func (s *Store) writeRow(row Row, old *TID) (TID, error) {
	if s.followerReadOnly() {
		return 0, ErrFollower
	}
	vals, err := s.resolveRow(row)
	if err != nil {
		return 0, err
	}
	tids, err := s.write([]map[model.AttrID]model.Value{vals}, old, 0)
	if err != nil {
		return 0, err
	}
	return tids[0], nil
}

// InsertBatch stores several rows in one critical section — the bulk-feed
// ingestion path. Rows receive consecutive ids, returned in order; on error
// nothing is inserted.
func (s *Store) InsertBatch(rows []Row) ([]TID, error) {
	if s.followerReadOnly() {
		return nil, ErrFollower
	}
	batch := make([]map[model.AttrID]model.Value, len(rows))
	for i, row := range rows {
		vals, err := s.resolveRow(row)
		if err != nil {
			return nil, fmt.Errorf("iva: row %d: %w", i, err)
		}
		batch[i] = vals
	}
	// A rebuild on the batch's behalf must leave id space for all of it.
	return s.write(batch, nil, max(1024, 2*int64(len(batch))))
}

// write is the store's one write section: under the store lock the resolved
// rows go to the index as one run — which also deletes the tuple *old, when
// old is set. It owns the one retry: when a packed width has overflowed
// (core.ErrNeedsRebuild, returned with nothing inserted) the files are rebuilt,
// leaving headroom tuple ids of space (0: the index's default), and the run is
// tried once more. Like Delete it ends in maintainLocked.
func (s *Store) write(batch []map[model.AttrID]model.Value, old *TID, headroom int64) ([]TID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run := func() ([]model.TID, error) {
		if old == nil {
			return s.ix.InsertBatch(batch)
		}
		tid, err := s.ix.Replace(model.TID(*old), batch[0])
		return []model.TID{tid}, err
	}
	tids, err := run()
	if err == core.ErrNeedsRebuild {
		if err = s.rebuildLocked(rebuildNeeded, headroom); err != nil {
			return nil, err
		}
		tids, err = run()
	}
	if err == core.ErrNotFound {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if old != nil {
		s.om.updates.Inc()
	} else {
		s.om.inserts.Add(int64(len(tids)))
	}
	if err := s.maintainLocked(); err != nil {
		return nil, err
	}
	out := make([]TID, len(tids))
	for i, tid := range tids {
		out[i] = TID(tid)
	}
	return out, nil
}

// Delete removes a tuple.
func (s *Store) Delete(tid TID) error {
	if s.followerReadOnly() {
		return ErrFollower
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ix.Delete(model.TID(tid)); err != nil {
		if err == core.ErrNotFound {
			return ErrNotFound
		}
		return err
	}
	s.om.deletes.Inc()
	return s.maintainLocked()
}

// maintainLocked is the one place the store decides, after a write, to rewrite
// its files on its own: cleaning when the deleted share of the tuple list
// has reached β (§IV-B), else the §III-C renewal — once the store has grown
// past GrowthRebuildFactor times its size at the last build, so that relative
// domains, list types and packed widths track the data — else nothing.
func (s *Store) maintainLocked() error {
	if beta := s.opts.CleanThreshold; beta > 0 && s.ix.DeletedFraction() >= beta {
		return s.rebuildLocked(rebuildClean, 0)
	}
	if f := s.opts.GrowthRebuildFactor; f > 0 && float64(s.tbl.Live()) >= max(64, float64(s.builtTuples)*f) {
		return s.rebuildLocked(rebuildGrowth, 0)
	}
	return nil
}

// Get returns a live tuple's row.
func (s *Store) Get(tid TID) (Row, error) {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	tp, err := s.ix.Fetch(model.TID(tid))
	if err != nil {
		if err == core.ErrNotFound {
			return nil, ErrNotFound
		}
		return nil, err
	}
	row := make(Row, len(tp.Values))
	for id, v := range tp.Values {
		info, err := s.cat.Info(id)
		if err != nil {
			return nil, err
		}
		row[info.Name] = Value{v}
	}
	return row, nil
}

// QueryStats reports one query's work (see the paper's Figs. 8–10).
type QueryStats struct {
	// Scanned is the number of live tuples filtered.
	Scanned int64
	// TableAccesses is the number of random table-file reads.
	TableAccesses int64
	// CacheHits and PhysReads split the query's page requests between the
	// buffer pool and the device, and DiskCostMS prices the physical I/O
	// under the 2009-HDD disk model — the machine-independent cost the
	// paper's figures reason about.
	CacheHits  int64
	PhysReads  int64
	DiskCostMS float64
	// Workers is the number of filter workers the search ran with.
	Workers int
	// DegradedSegments counts the distinct corrupt vector-list segments the
	// query read past: a segment that fails its checksum contributes zero
	// lower bounds, so every affected tuple goes to refine, where the exact
	// distance is computed from the (verified) table record. Zero on a healthy
	// store; any other value means the results are still exact — degradation
	// trades filter I/O for correctness, never the reverse — but the index
	// needs a scrub and rebuild (also iva_corrupt_segments_total). A query
	// never reads the tuple or deletion list: damage to them, or to the
	// attribute metadata, fails the open, and a damaged table record fails
	// the query with a *CorruptionError: there is nothing sound to degrade to.
	DegradedSegments int
	// TraceID is the 16-hex-digit id of the query's trace — the join key
	// into the sampled trace ring (WriteTraces, /debug/trace, whose latency
	// exemplars are read from that ring) and the slow-query log.
	TraceID string
	// Phase is the per-phase profile of the executed plan: filter/refine/
	// merge wall time and the striped plan's work distribution per worker.
	// Always populated by a successful Search (profiling is free); Render
	// prints it EXPLAIN ANALYZE-style.
	Phase *PhaseProfile
}

// resolveQuery maps a query's attribute names to ids, term by term. A query
// never writes the catalog: a name it does not know resolves to an id no
// record can carry — counted down from the top of the id space, one per
// distinct name — and the index treats an id outside its attribute list as
// undefined in every tuple. Caller holds s.engineMu.
func (s *Store) resolveQuery(q *Query) *model.Query {
	mq := &model.Query{K: q.k, Terms: make([]model.QueryTerm, len(q.terms))}
	for i, t := range q.terms {
		id, ok := s.cat.Lookup(t.attr)
		if !ok {
			id = math.MaxUint32 - model.AttrID(i)
			for j := range q.terms[:i] {
				if q.terms[j].attr == t.attr {
					id = mq.Terms[j].Attr
				}
			}
		}
		mq.Terms[i] = model.QueryTerm{
			Attr: id, Kind: t.kind.internal(), Num: t.num, Str: t.str, Weight: t.weight,
		}
	}
	return mq
}

// Search answers a top-k structured similarity query. Unknown attribute
// names are treated as undefined everywhere (every tuple gets the ndf
// penalty on them).
//
// Every search feeds the store's metrics registry and gets a trace id; a
// sampled one, and every query at or above Options.SlowQueryThreshold, is
// kept so that its trace can be rendered later (WriteTraces,
// WriteSlowQueries).
func (s *Store) Search(q *Query) ([]Result, QueryStats, error) {
	return s.SearchContext(context.Background(), q)
}

// SearchContext is Search under a context: cancellation and deadlines are
// honored at stripe boundaries during the filter phase and before every
// refine fetch, returning ctx.Err() with the partial stats accumulated so
// far. An already-expired context fails before any device read; a deadline
// on ctx is the one way to bound a search's wall time.
func (s *Store) SearchContext(ctx context.Context, q *Query) ([]Result, QueryStats, error) {
	var qs QueryStats
	if q.err != nil {
		return nil, qs, q.err
	}
	start := time.Now()

	// The engine lock covers term resolution too: a follower's delta apply
	// swaps the catalog pointer together with the engine, so s.cat must not
	// be read outside it.
	s.engineMu.RLock()
	planStart := time.Now()
	mq := s.resolveQuery(q)
	plan := time.Since(planStart)

	res, st, err := s.ix.SearchContext(ctx, mq, s.met)
	if st.DegradedSegments > 0 && s.fol != nil {
		s.fol.noteDamage()
	}
	s.engineMu.RUnlock()
	if err != nil {
		s.om.queryErrs.Inc()
		// Partial stats still describe the work done before the failure —
		// a cancelled query reports how far it got.
		qs.Scanned = st.Scanned
		qs.TableAccesses = st.TableAccesses
		qs.Workers = st.Workers
		qs.DegradedSegments = st.DegradedSegments
		return nil, qs, err
	}
	dur := time.Since(start)

	io := st.FilterIO.Add(st.RefineIO)
	qs = QueryStats{
		Scanned:          st.Scanned,
		TableAccesses:    st.TableAccesses,
		CacheHits:        io.CacheHits,
		PhysReads:        io.PhysReads,
		DiskCostMS:       s.disk.CostMS(io),
		Workers:          st.Workers,
		DegradedSegments: st.DegradedSegments,
		TraceID:          newTraceID(),
		Phase: &PhaseProfile{
			FilterTime:     st.FilterWall,
			RefineTime:     st.RefineWall,
			MergeTime:      st.MergeWall,
			StripesTotal:   st.StripesTotal,
			StripesSkipped: st.StripesSkipped,
			Workers:        st.WorkerProfiles,
		},
	}
	if st.DegradedSegments > 0 {
		s.om.corruptSegs.Add(int64(st.DegradedSegments))
	}
	s.om.scanned.Add(st.Scanned)
	s.om.accesses.Add(st.TableAccesses)
	s.om.queryDur.Observe(dur.Seconds())
	s.om.filterDur.Observe(st.FilterWall.Seconds())
	s.om.refineDur.Observe(st.RefineWall.Seconds())
	s.om.mergeDur.Observe(st.MergeWall.Seconds())
	s.om.filterReads.Observe(float64(st.FilterIO.PhysReads))
	s.om.refineReads.Observe(float64(st.RefineIO.PhysReads))
	s.keepQuery(q, mq, st, qs.TraceID, len(res), plan, dur)

	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{TID: TID(r.TID), Dist: r.Dist}
	}
	return out, qs, nil
}

// WriteMetrics serializes every metric of the store's registry in the
// Prometheus text exposition format (text/plain; version=0.0.4): query
// latency and per-phase histograms, insert/delete/rebuild counters, buffer
// pool cache and seq/near/rand I/O counters, modeled disk cost, and the
// store-shape gauges.
func (s *Store) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }

// MetricsText returns WriteMetrics output as a string.
func (s *Store) MetricsText() string { return s.reg.Text() }

// Rebuild rewrites the table and index files, dropping deleted tuples and
// re-deriving numeric domains and list layouts. It is called automatically
// by the cleaning policy but may be invoked explicitly.
func (s *Store) Rebuild() error {
	if s.followerReadOnly() {
		return ErrFollower
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuildLocked(rebuildExplicit, 0)
}

// rebuildCause says what made the store rewrite its files; it is the cause
// label of iva_rebuilds_total and the split in StoreStats.
type rebuildCause int

const (
	rebuildClean    rebuildCause = iota // the deleted share reached β (§IV-B)
	rebuildGrowth                       // the live count passed GrowthRebuildFactor × the last build's (§III-C)
	rebuildNeeded                       // core.ErrNeedsRebuild: a packed width overflowed
	rebuildExplicit                     // Store.Rebuild
	numRebuildCauses
)

var rebuildCauseNames = [numRebuildCauses]string{"clean", "growth", "needs_rebuild", "explicit"}

// rebuildLocked rewrites both files beside the live ones and installs them;
// headroom is the id space the new index leaves above the table's next tid (0:
// the index's default).
func (s *Store) rebuildLocked(cause rebuildCause, headroom int64) error {
	tblF, ixF, err := s.openPair(newSuffix)
	if err != nil {
		return err
	}
	g := generation{cat: s.cat, tblFile: tblF, ixFile: ixF}
	if g.tbl, err = s.tbl.Rebuild(tblF.File, s.ix.Live); err == nil {
		opts := s.coreOptions(s.cat)
		opts.TIDHeadroom = headroom
		if g.ix, err = core.Build(g.tbl, ixF.File, opts); err == nil {
			g.met, err = s.newMetric(g.cat, g.tbl)
		}
	}
	if err != nil {
		s.discard(tblF, ixF)
		return err
	}
	if err := s.install(g); err != nil {
		return err
	}
	// A rebuild replaces the files wholesale: in-place deltas cannot continue
	// across it, so the retained log is invalidated and the next poll of every
	// follower is answered with a Full delta.
	if s.replP != nil {
		s.replInvalidateLocked()
	}
	s.om.rebuilds[cause].Inc()
	return nil
}

// IOStats are the buffer pool's cumulative physical-I/O counters, with
// reads broken down by the paper's seq/near/rand access classes.
type IOStats = storage.Snapshot

// StoreStats summarize the store's current shape.
type StoreStats struct {
	Tuples     int64 // live tuples
	Deleted    int64 // deleted tuples awaiting cleaning
	Attributes int   // registered attributes
	TableBytes int64
	IndexBytes int64
	Rebuilds   int64         // table/index file rebuilds, all causes
	RebuildsBy RebuildCounts // the same, split by what triggered them
	IO         IOStats       // buffer pool counters over the store's lifetime
}

// RebuildCounts splits a rebuild count by cause: the cleaning threshold β, the
// growth factor, a packed width that overflowed (core.ErrNeedsRebuild), and
// explicit Rebuild calls.
type RebuildCounts struct {
	Clean, Growth, NeedsRebuild, Explicit int64
}

// Stats returns current store statistics.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &s.om.rebuilds
	by := RebuildCounts{
		Clean: n[rebuildClean].Value(), Growth: n[rebuildGrowth].Value(),
		NeedsRebuild: n[rebuildNeeded].Value(), Explicit: n[rebuildExplicit].Value(),
	}
	return StoreStats{
		Tuples:     s.tbl.Live(),
		Deleted:    s.ix.Deleted(),
		Attributes: s.cat.NumAttrs(),
		TableBytes: s.tbl.Bytes(),
		IndexBytes: s.ix.SizeBytes(),
		Rebuilds:   by.Clean + by.Growth + by.NeedsRebuild + by.Explicit,
		RebuildsBy: by,
		IO:         s.pool.Stats().Snapshot(),
	}
}

// TermExplain reports one query term's filtering behavior (see Explain).
type TermExplain struct {
	Attr     string
	Kind     Kind
	ListType string
	Alpha    float64
	Defined  int64   // tuples with an indexed value on the attribute
	NDF      int64   // tuples undefined on it
	MeanEst  float64 // mean lower bound over defined tuples
	MinEst   float64
	MaxEst   float64
	// Tightness is mean(lower bound / exact difference) over the tuples a
	// real search fetches: 1.0 means the index's bounds are perfect, small
	// values mean the elements are too short to discriminate (raise α).
	Tightness float64
}

// QueryExplain is the instrumented result of Explain.
type QueryExplain struct {
	Results      []Result
	Scanned      int64
	Fetched      int64
	PoolMaxFinal float64 // the k-th distance: the bar estimates must beat
	Terms        []TermExplain
}

// Explain runs a query with per-term instrumentation: how each attribute's
// approximation vectors bounded the differences, and how tight those bounds
// were. It is the tuning companion to the α/n options. It is one search on
// one worker that keeps every fetch's bounds, so keep it off hot paths.
func (s *Store) Explain(q *Query) (*QueryExplain, error) {
	if q.err != nil {
		return nil, q.err
	}
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	mq := s.resolveQuery(q)
	names := make(map[model.AttrID]string, len(q.terms))
	for i, t := range q.terms {
		names[mq.Terms[i].Attr] = t.attr
	}
	ex, err := s.ix.ExplainSearch(mq, s.met)
	if err != nil {
		return nil, err
	}
	out := &QueryExplain{
		Scanned:      ex.Scanned,
		Fetched:      ex.Fetched,
		PoolMaxFinal: ex.PoolMaxFinal,
	}
	for _, r := range ex.Results {
		out.Results = append(out.Results, Result{TID: TID(r.TID), Dist: r.Dist})
	}
	for _, te := range ex.Terms {
		out.Terms = append(out.Terms, TermExplain{
			Attr:      names[te.Attr],
			Kind:      kindFrom(te.Kind),
			ListType:  te.ListType.String(),
			Alpha:     te.Alpha,
			Defined:   te.Defined,
			NDF:       te.NDF,
			MeanEst:   te.MeanEst,
			MinEst:    te.MinEst,
			MaxEst:    te.MaxEst,
			Tightness: te.Tightness,
		})
	}
	return out, nil
}

// Scan enumerates every live tuple in tuple-list order (a sequential pass
// over the table file). The callback returns false to stop early. The store
// is locked for the duration; do not call Store methods from fn.
func (s *Store) Scan(fn func(TID, Row) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	stop := false
	err := s.tbl.Scan(func(_ int64, tp *model.Tuple) error {
		if stop || !s.ix.Live(tp.TID) {
			return nil
		}
		row := make(Row, len(tp.Values))
		for id, v := range tp.Values {
			info, err := s.cat.Info(id)
			if err != nil {
				return err
			}
			row[info.Name] = Value{v}
		}
		if !fn(TID(tp.TID), row) {
			stop = true
		}
		return nil
	})
	return err
}

// CheckReport summarizes a Check run; Ok reports whether it found no problems.
type CheckReport = core.CheckReport

// Check cross-validates the whole index against the table file: tuple-list
// order and pointers, every approximation vector against its stored value,
// and catalog statistics. Run it after crashes or migrations.
func (s *Store) Check() (CheckReport, error) {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	return s.ix.Check()
}

// AttrInfo describes one indexed attribute's layout.
type AttrInfo struct {
	Name     string
	Kind     Kind
	ListType string  // "I", "II", "III" or "IV" (§III-D)
	Alpha    float64 // relative vector length in effect
	Bits     int64   // vector list size in bits
	DF       int64   // tuples defining the attribute
	Strings  int64   // total strings (text attributes)
	Codec    string  // block codec the list is stored under
	Blocks   int     // sealed block containers (packed codec only)
}

// Attrs reports every indexed attribute's layout, useful for inspecting
// the §III-D list-type selection and sizing on real data.
func (s *Store) Attrs() []AttrInfo {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	var out []AttrInfo
	for _, r := range s.ix.Attrs() {
		out = append(out, AttrInfo{
			Name:     r.Name,
			Kind:     kindFrom(r.Kind),
			ListType: r.ListType.String(),
			Alpha:    r.Alpha,
			Bits:     r.BitLen,
			DF:       r.DF,
			Strings:  r.Str,
			Codec:    r.Codec,
			Blocks:   r.CodedBlocks,
		})
	}
	return out
}

// Sync checkpoints all files (catalog, table header, index metadata).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.followerReadOnly() {
		// A follower's durable state is exactly the applied synced prefix; a
		// local Sync would rewrite superblock/checksum-map bytes the next
		// delta assumes unchanged, forking the replica. There is nothing to
		// flush anyway — followers accept no local writes.
		return nil
	}
	// The catalog goes first: every attribute a committed record defines must
	// be in the committed catalog, or the record cannot be walked and its id
	// is handed out again. A catalog ahead of the files is harmless: it names
	// attributes no committed record uses, and its statistics run one Sync
	// ahead.
	if s.dir != "" {
		if err := writeFileAtomic(filepath.Join(s.dir, catalogFileName), s.cat.Encode()); err != nil {
			return fmt.Errorf("iva: write catalog: %w", err)
		}
	}
	if err := s.tbl.Sync(); err != nil {
		return err
	}
	if err := s.ix.Sync(); err != nil {
		return err
	}
	// A replication primary cuts one synced-prefix delta per committed
	// generation: the byte ranges written since the previous Sync, snapshotted
	// now that they are durable and self-consistent.
	if s.replP != nil {
		s.replCutLocked()
	}
	return nil
}

// Close checkpoints and releases the store. Closing twice is a no-op. On a
// follower the poll loop is stopped first.
func (s *Store) Close() error {
	s.stopFollower()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	s.closed = true
	return s.discard(s.tblFile, s.ixFile)
}
