package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// The fault-point torture sweep: one scripted Build → Insert/Delete/Replace →
// Sync sequence is replayed with a FaultDevice armed to fail after every possible number
// of successful device operations (budget 0, 1, 2, … until a run completes
// without tripping), once with the index device armed and once with the
// table device armed. Every crash point must leave a state from which a
// fresh process — new page pool, no in-memory leftovers — recovers exactly
// the last synced prefix: some sync-time snapshot opens cleanly with exactly
// its live tuples, no acked entry is lost, the full integrity check passes,
// and the store resumes inserts, deletes and syncs.

// tortureOpts uses a tiny stripe width so the script's handful of syncs
// exercise checkpoint persistence too.
func tortureOpts() Options { return Options{CheckpointEvery: 8} }

const tortureSeedRows = 24

// tortureSnapshot is a recovery candidate: the entry count, live tuples and
// catalog as they stood immediately before a sync attempt (equivalently: as
// committed if that attempt fully succeeds).
type tortureSnapshot struct {
	entries int64
	live    []model.TID
	cat     []byte
}

type tortureState struct {
	tblDev, idxDev storage.Device // armed or raw
	fd             *storage.FaultDevice
	poolBytes      int64

	pool       *storage.Pool
	tblF, idxF *storage.File
	cat        *table.Catalog
	tbl        *table.Table
	ix         *Index
	num, txt   model.AttrID

	rows       int // rows generated so far (deterministic values)
	built      bool
	candidates []tortureSnapshot
	acked      int64 // entries at the last fully acknowledged sync; -1 before

	// afterOp, when set, runs after every index operation of the script.
	afterOp func() error
}

func newTortureState(t *testing.T, armTable bool, budget, poolBytes int64) *tortureState {
	t.Helper()
	s := &tortureState{acked: -1, poolBytes: poolBytes}
	tblMem, idxMem := storage.NewMemDevice(), storage.NewMemDevice()
	s.tblDev, s.idxDev = storage.Device(tblMem), storage.Device(idxMem)
	if armTable {
		s.fd = storage.NewFaultDevice(tblMem, budget)
		s.tblDev = s.fd
	} else {
		s.fd = storage.NewFaultDevice(idxMem, budget)
		s.idxDev = s.fd
	}
	s.pool = storage.NewPool(0, s.poolBytes)
	s.tblF = storage.NewFile(s.pool, s.tblDev)
	s.idxF = storage.NewFile(s.pool, s.idxDev)
	s.cat = table.NewCatalog()
	var err error
	if s.num, err = s.cat.AddAttr("price", model.KindNumeric); err != nil {
		t.Fatal(err)
	}
	if s.txt, err = s.cat.AddAttr("title", model.KindText); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *tortureState) row() map[model.AttrID]model.Value {
	s.rows++
	vals := map[model.AttrID]model.Value{
		s.num: model.Num(float64(s.rows)*7.25 + 3),
	}
	if s.rows%2 == 0 {
		vals[s.txt] = model.Text(fmt.Sprintf("item-%d", s.rows), "torture")
	}
	return vals
}

// op ends one index operation of the script: it passes on the operation's
// error, or else runs afterOp.
func (s *tortureState) op(err error) error {
	if err != nil || s.afterOp == nil {
		return err
	}
	return s.afterOp()
}

func (s *tortureState) record() {
	s.candidates = append(s.candidates, tortureSnapshot{
		entries: s.ix.Entries(),
		live:    s.ix.LiveTIDs(),
		cat:     s.cat.Encode(),
	})
}

// script is the faulted sequence. Any returned error must be the injected
// one; the driver asserts that.
func (s *tortureState) script() error {
	var err error
	if s.tbl, err = table.New(s.tblF, s.cat); err != nil {
		return err
	}
	for i := 0; i < tortureSeedRows; i++ {
		if _, _, err := s.tbl.Append(s.row()); err != nil {
			return err
		}
	}
	if err := s.tbl.Sync(); err != nil {
		return err
	}
	s.ix, err = Build(s.tbl, s.idxF, tortureOpts())
	if err := s.op(err); err != nil {
		return err
	}
	// Build ends with a successful Sync: the first committed state.
	s.built = true
	s.record()
	s.acked = s.ix.Entries()
	for i := 0; i < 12; i++ {
		_, err := s.ix.Insert(s.row())
		if err := s.op(err); err != nil {
			return err
		}
		// Between two syncs, one seed tuple is deleted and one replaced.
		switch seed := model.TID(2 * (i / 3)); i % 3 {
		case 0:
			if err := s.op(s.ix.Delete(seed)); err != nil {
				return err
			}
		case 1:
			_, err := s.ix.Replace(seed+1, s.row())
			if err := s.op(err); err != nil {
				return err
			}
		}
		if (i+1)%3 == 0 {
			s.record()
			// Table before index: the index's synced prefix must never
			// reference records beyond the table's synced prefix.
			if err := s.tbl.Sync(); err != nil {
				return err
			}
			if err := s.op(s.ix.Sync()); err != nil {
				return err
			}
			s.acked = s.ix.Entries()
		}
	}
	return nil
}

func (s *tortureState) close() {
	s.tblF.Close()
	s.idxF.Close()
}

// searchAssert runs one query and checks the result count.
func searchAssert(t *testing.T, budget int64, ix *Index, num model.AttrID) {
	t.Helper()
	q := &model.Query{K: 5}
	q.NumTerm(num, 50)
	res, _, err := ix.Search(q, nil)
	if err != nil {
		t.Fatalf("budget %d: post-recovery search: %v", budget, err)
	}
	want := 5
	if live := int(ix.Entries() - ix.Deleted()); live < want {
		want = live
	}
	if len(res) != want {
		t.Fatalf("budget %d: post-recovery search returned %d results, want %d", budget, len(res), want)
	}
}

// resumeAssert proves the recovered store is fully operational: inserts,
// a full sync, a clean integrity check and a search.
func resumeAssert(t *testing.T, budget int64, s *tortureState, tbl *table.Table, ix *Index) {
	t.Helper()
	for j := 0; j < 4; j++ {
		if _, err := ix.Insert(s.row()); err != nil {
			t.Fatalf("budget %d: resumed insert: %v", budget, err)
		}
	}
	if err := ix.Delete(ix.LiveTIDs()[0]); err != nil {
		t.Fatalf("budget %d: resumed delete: %v", budget, err)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("budget %d: resumed table sync: %v", budget, err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatalf("budget %d: resumed index sync: %v", budget, err)
	}
	rep, err := ix.Check()
	if err != nil {
		t.Fatalf("budget %d: post-resume check: %v", budget, err)
	}
	if !rep.Ok() {
		t.Fatalf("budget %d: post-resume check: %v", budget, rep.Problems)
	}
	searchAssert(t, budget, ix, s.num)
}

// recover simulates the process restart: the fault is disarmed (the "disk"
// keeps whatever writes succeeded), all caches are dropped, and the store is
// reopened from one of the sync-time candidates.
func (s *tortureState) recover(t *testing.T, budget int64) {
	t.Helper()
	s.fd.Reset(-1)
	pool := storage.NewPool(0, s.poolBytes)
	tblF := storage.NewFile(pool, s.tblDev)
	idxF := storage.NewFile(pool, s.idxDev)

	if !s.built {
		// Crash before Build committed: there is no index to salvage (the
		// file has no valid superblock yet); recovery is re-running the
		// setup, which overwrites both files from scratch.
		cat := table.NewCatalog()
		var err error
		if s.num, err = cat.AddAttr("price", model.KindNumeric); err != nil {
			t.Fatal(err)
		}
		if s.txt, err = cat.AddAttr("title", model.KindText); err != nil {
			t.Fatal(err)
		}
		s.cat, s.rows = cat, 0
		tbl, err := table.New(tblF, cat)
		if err != nil {
			t.Fatalf("budget %d: rebuild table: %v", budget, err)
		}
		for i := 0; i < tortureSeedRows; i++ {
			if _, _, err := tbl.Append(s.row()); err != nil {
				t.Fatalf("budget %d: rebuild append: %v", budget, err)
			}
		}
		if err := tbl.Sync(); err != nil {
			t.Fatalf("budget %d: rebuild table sync: %v", budget, err)
		}
		ix, err := Build(tbl, idxF, tortureOpts())
		if err != nil {
			t.Fatalf("budget %d: rebuild: %v", budget, err)
		}
		rep, err := ix.Check()
		if err != nil || !rep.Ok() {
			t.Fatalf("budget %d: rebuild check: %v %v", budget, err, rep.Problems)
		}
		resumeAssert(t, budget, s, tbl, ix)
		return
	}

	// Crash after Build: exactly one candidate matches the committed
	// superblock (entry counts are strictly increasing across snapshots).
	var (
		ix2  *Index
		tbl2 *table.Table
	)
	for i := len(s.candidates) - 1; i >= 0; i-- {
		cand := s.candidates[i]
		cat2, err := table.DecodeCatalog(cand.cat)
		if err != nil {
			t.Fatalf("budget %d: candidate %d decode: %v", budget, i, err)
		}
		tb, err := table.Open(tblF, cat2)
		if err != nil {
			continue
		}
		x, err := Open(idxF, tb, tortureOpts())
		if err != nil {
			continue
		}
		if x.Entries() != cand.entries {
			continue
		}
		if live := x.LiveTIDs(); !slices.Equal(live, cand.live) {
			t.Fatalf("budget %d: candidate %d reopened with live tuples %v, synced %v", budget, i, live, cand.live)
		}
		ix2, tbl2 = x, tb
		s.cat = cat2
		break
	}
	if ix2 == nil {
		t.Fatalf("budget %d: no sync candidate recovered (acked %d entries)", budget, s.acked)
	}
	if ix2.Entries() < s.acked {
		t.Fatalf("budget %d: recovered %d entries, lost acked prefix of %d", budget, ix2.Entries(), s.acked)
	}
	rep, err := ix2.Check()
	if err != nil {
		t.Fatalf("budget %d: recovered check: %v", budget, err)
	}
	if !rep.Ok() {
		t.Fatalf("budget %d: recovered state inconsistent: %v", budget, rep.Problems)
	}
	searchAssert(t, budget, ix2, s.num)
	resumeAssert(t, budget, s, tbl2, ix2)
}

// runTortureSweep enumerates fault budgets until the script completes with
// the armed device never tripping — i.e. every injection site was covered.
// poolBytes sizes the page pool: the 1 MiB default holds the whole working
// set, while the tiny-pool variant forces CLOCK eviction between the crash
// point and recovery, so fault handling is exercised with pages constantly
// leaving and re-entering the cache.
func runTortureSweep(t *testing.T, armTable bool, poolBytes int64) {
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	crashes := 0
	for budget := int64(0); ; budget += step {
		s := newTortureState(t, armTable, budget, poolBytes)
		err := s.script()
		if err == nil {
			s.close()
			if s.fd.Tripped() {
				t.Fatalf("budget %d: script succeeded past an injected fault", budget)
			}
			t.Logf("sweep done: %d crash points recovered, script uses <%d device ops", crashes, budget)
			return
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("budget %d: crash surfaced a non-injected error: %v", budget, err)
		}
		crashes++
		s.recover(t, budget)
		s.close()
	}
}

func TestTortureSweepIndexDevice(t *testing.T) { runTortureSweep(t, false, 1<<20) }

func TestTortureSweepTableDevice(t *testing.T) { runTortureSweep(t, true, 1<<20) }

// The tiny-pool sweeps rerun the same crash script with a 4-page cache, so
// every list scan and recovery pass evicts concurrently with the armed
// device: crash points now land while the CLOCK hand is moving and while
// pinned reader windows force copy-on-write, which the roomy default pool
// never exercises.
func TestTortureSweepIndexDeviceTinyPool(t *testing.T) { runTortureSweep(t, false, 16<<10) }

func TestTortureSweepTableDeviceTinyPool(t *testing.T) { runTortureSweep(t, true, 16<<10) }

// TestScrubCleanAfterEveryOp runs the torture script on an unarmed device and
// scrubs the index after every operation. No write lands on a committed byte
// (FORMAT.md § Checksums), so every committed word holds between Syncs as
// well as at them: a write that rewrites a committed byte in place fails here
// before any crash has to expose it.
func TestScrubCleanAfterEveryOp(t *testing.T) {
	s := newTortureState(t, false, -1, 1<<20)
	defer s.close()
	ops := 0
	s.afterOp = func() error {
		ops++
		rep, err := s.ix.Scrub()
		if err != nil {
			return err
		}
		if !rep.Clean() || rep.Segments == 0 {
			return fmt.Errorf("scrub after op %d: %d segments, %v", ops, rep.Segments, rep.Problems)
		}
		return nil
	}
	if err := s.script(); err != nil {
		t.Fatal(err)
	}
	if ops != 25 { // Build, 12 inserts, 4 deletes, 4 replaces, 4 syncs
		t.Fatalf("scrubbed after %d ops, want 25", ops)
	}
}
