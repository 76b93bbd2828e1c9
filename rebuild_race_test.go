package iva

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestGrowthRebuildSearchRace races maybeGrowthRebuild against concurrent
// SearchContext callers: with a low growth factor the insert stream keeps
// swapping the engines under the readers, and every search must either see
// the old generation or the new one — never an error, never in-flight bytes.
// Run with -race for the full assertion.
func TestGrowthRebuildSearchRace(t *testing.T) {
	st, err := Create(t.TempDir(), Options{GrowthRebuildFactor: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 80; i++ {
		if _, err := st.Insert(Row{
			"num": Num(float64(rng.Intn(300))),
			"cat": Strings(fmt.Sprintf("cat-%02d", rng.Intn(16))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var searches atomic.Int64
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				q := NewQuery(1+r.Intn(10)).
					WhereNum("num", float64(r.Intn(300))).
					WhereText("cat", fmt.Sprintf("cat-%02d", r.Intn(16)))
				if _, _, err := st.SearchContext(ctx, q); err != nil && ctx.Err() == nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				searches.Add(1)
			}
		}(int64(g))
	}

	// The insert stream drives the store through several growth rebuilds
	// while the readers hammer it.
	rebuildsBefore := st.Stats().Rebuilds
	for i := 0; i < 1200; i++ {
		if _, err := st.Insert(Row{
			"num": Num(float64(rng.Intn(300))),
			"cat": Strings(fmt.Sprintf("cat-%02d", rng.Intn(16))),
		}); err != nil {
			cancel()
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent search failed during growth rebuilds: %v", err)
	default:
	}
	if st.Stats().Rebuilds == rebuildsBefore {
		t.Fatal("insert stream triggered no growth rebuild; the race was not exercised")
	}
	if searches.Load() == 0 {
		t.Fatal("no search completed; the race was not exercised")
	}
}

// TestCatalogRebuildRace races the writers that register attributes —
// DefineAttr, and Insert of rows naming new ones — and Search against a
// Rebuild loop, each of whose installs swaps the generation the catalog
// pointer belongs to. Every reader takes that pointer under the engine lock;
// under -race, one that does not trips the detector.
func TestCatalogRebuildRace(t *testing.T) {
	st, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 64; i++ {
		if _, err := st.Insert(Row{"num": Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errCh := make(chan error, 2) // one slot per loop
	var wg sync.WaitGroup
	loop := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	var rebuilds atomic.Int64
	loop(func(int) error { rebuilds.Add(1); return st.Rebuild() })
	loop(func(i int) error {
		_, _, err := st.Search(NewQuery(3).WhereNum("num", float64(i%64)).WhereNum(fmt.Sprintf("ins-%d", i%200), 1))
		return err
	})
	for i := 0; i < 200 && !t.Failed(); i++ {
		if err := st.DefineAttr(fmt.Sprintf("def-%d", i), Numeric); err != nil {
			t.Error(err)
		}
		if _, err := st.Insert(Row{"num": Num(float64(i)), fmt.Sprintf("ins-%d", i): Num(1)}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if rebuilds.Load() == 0 {
		t.Fatal("no rebuild ran; the race was not exercised")
	}
	if got, want := st.Stats().Attributes, 1+2*200; got != want {
		t.Fatalf("%d attributes registered, want %d", got, want)
	}
}

// TestGrowthRebuildCrashSweep kills a growth rebuild at every I/O operation
// budget (a FaultDevice under the rebuild's ".new" files, each budget once
// with the tripping write failing whole and once with it torn) and requires the reopened store to land on a consistent
// generation: Open succeeds and removes the unfinished pair, a scrub is clean,
// and every previously synced row is intact (the states a crash inside
// install's renames leaves are TestOpenRecoversInterruptedSwap's). A crashed process runs no error path, so what the failed
// rebuild's cleanup removes is put back before the reopen: the hook keeps a
// hard link to each ".new" file, and the reopened store finds them exactly as
// the crash would have left them.
func TestGrowthRebuildCrashSweep(t *testing.T) {
	// The growth bar is max(64, builtTuples*factor); with nothing built yet
	// it sits at 64 live tuples. Seed just below it so the sweep's fault
	// budget is consumed by exactly one rebuild, triggered on demand.
	const seedRows = 60
	step := int64(1)
	if testing.Short() {
		step = 9
	}
	for budget, completed := int64(1), false; !completed; budget += step {
		if budget > 100000 {
			t.Fatal("rebuild still tripping at budget 100000; sweep cannot terminate")
		}
		// Every budget is run twice: the tripping write fails whole, then torn.
		for _, torn := range []bool{false, true} {
			completed = growthRebuildCrash(t, seedRows, budget, torn)
		}
	}
}

// growthRebuildCrash is one crash point of TestGrowthRebuildCrashSweep. It
// reports whether the rebuild fit in the budget.
func growthRebuildCrash(t *testing.T, seedRows int, budget int64, torn bool) (completed bool) {
	var (
		mu   sync.Mutex
		devs []*storage.FaultDevice // the ".new" devices the hook wrapped
	)
	dir := t.TempDir()
	opts := Options{
		// The growth bar must stay put across the sweep: rebuild exactly
		// when live reaches 2x the seeded build.
		GrowthRebuildFactor: 2,
		CleanThreshold:      1,
		deviceHook: func(name string, dev storage.Device) storage.Device {
			if !strings.HasSuffix(name, newSuffix) {
				return dev
			}
			os.Remove(filepath.Join(dir, name+".crash")) // of an earlier rebuild of this run
			if err := os.Link(filepath.Join(dir, name), filepath.Join(dir, name+".crash")); err != nil {
				t.Errorf("budget %d: %v", budget, err)
			}
			fd := storage.NewFaultDevice(dev, budget)
			fd.SetTornWrites(torn)
			mu.Lock()
			devs = append(devs, fd)
			mu.Unlock()
			return fd
		},
	}
	st, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(budget))
	rows := make([]Row, 0, seedRows)
	tids := make([]TID, 0, seedRows)
	for i := 0; i < seedRows; i++ {
		row := Row{
			"num": Num(float64(rng.Intn(500))),
			"cat": Strings(fmt.Sprintf("cat-%02d", rng.Intn(12))),
		}
		tid, err := st.Insert(row)
		if err != nil {
			t.Fatalf("budget %d: seed insert: %v", budget, err)
		}
		rows, tids = append(rows, row), append(tids, tid)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("budget %d: seed sync: %v", budget, err)
	}

	// Insert past the growth bar: the rebuild fires and runs into the
	// fault budget. Unsynced inserts may vanish in the crash — only the
	// synced prefix is owed.
	var rebuildErr error
	for i := 0; i < seedRows*2 && rebuildErr == nil; i++ {
		_, rebuildErr = st.Insert(Row{
			"num": Num(float64(rng.Intn(500))),
			"cat": Strings(fmt.Sprintf("cat-%02d", rng.Intn(12))),
		})
	}
	mu.Lock()
	tripped := false
	for _, d := range devs {
		tripped = tripped || d.Tripped()
	}
	nDevs := len(devs)
	mu.Unlock()
	if nDevs == 0 {
		t.Fatalf("budget %d: growth rebuild never started", budget)
	}
	if !tripped {
		// The whole rebuild fit in the budget: the sweep has covered
		// every failure point. One last pass must have succeeded cleanly.
		if rebuildErr != nil {
			t.Fatalf("budget %d: no device tripped but insert failed: %v", budget, rebuildErr)
		}
		completed = true
		t.Logf("sweep done: the rebuild uses fewer than %d device operations", budget)
	} else if rebuildErr == nil {
		t.Fatalf("budget %d: device tripped but the rebuild reported success", budget)
	}

	// Crash: abandon without Close, put back the ".new" files of a
	// rebuild that did not finish, reopen without faults.
	st = nil
	if tripped {
		for _, name := range []string{tableFileName + newSuffix, indexFileName + newSuffix} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				t.Fatalf("budget %d: failed rebuild left %s behind", budget, name)
			}
			if err := os.Rename(filepath.Join(dir, name+".crash"), filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
	}
	re, err := Open(dir, Options{GrowthRebuildFactor: 1e9, CleanThreshold: 1})
	if err != nil {
		t.Fatalf("budget %d: reopen after mid-rebuild crash: %v", budget, err)
	}
	// Open's recovery has taken the unfinished pair away again.
	for _, name := range []string{tableFileName + newSuffix, indexFileName + newSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("budget %d: %s still there after the reopen (%v)", budget, name, err)
		}
	}
	rep, err := re.Scrub()
	if err != nil {
		t.Fatalf("budget %d: scrub: %v", budget, err)
	}
	if !rep.Clean() {
		t.Fatalf("budget %d: reopened store not clean: %v", budget, rep.Problems)
	}
	for i, tid := range tids {
		got, err := re.Get(tid)
		if err != nil {
			t.Fatalf("budget %d: synced row %d lost after crash: %v", budget, tid, err)
		}
		if len(got) != len(rows[i]) {
			t.Fatalf("budget %d: synced row %d came back with %d attrs, want %d", budget, tid, len(got), len(rows[i]))
		}
	}
	// The reopened generation keeps working: a query and an insert both
	// succeed.
	if _, _, err := re.Search(NewQuery(5).WhereNum("num", 100)); err != nil {
		t.Fatalf("budget %d: search on reopened store: %v", budget, err)
	}
	if _, err := re.Insert(Row{"num": Num(1)}); err != nil {
		t.Fatalf("budget %d: insert on reopened store: %v", budget, err)
	}
	re.Close()
	return completed
}
