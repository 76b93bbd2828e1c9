package iva

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSearchDuringRebuild forces frequent rebuilds (aggressive cleaning
// threshold) while readers are mid-query: the engine swap must drain
// in-flight searches instead of closing files under them.
func TestSearchDuringRebuild(t *testing.T) {
	st, err := Create("", Options{CleanThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 300; i++ {
		if _, err := st.Insert(Row{
			"name": Strings(fmt.Sprintf("item %03d", i)),
			"rank": Num(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := NewQuery(5).
					WhereText("name", fmt.Sprintf("item %03d", rng.Intn(300))).
					WhereNum("rank", float64(rng.Intn(300)))
				if _, _, err := st.Search(q); err != nil {
					errc <- err
					return
				}
			}
		}(int64(r))
	}
	// Every delete at β=1% can trigger a rebuild.
	for i := 0; i < 120; i++ {
		tid, err := st.Insert(Row{"name": Strings("churn")})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(tid); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("search failed during rebuild: %v", err)
	}
	if st.Stats().Rebuilds == 0 {
		t.Fatal("no rebuilds happened; test exercised nothing")
	}
}

// TestConcurrentSearchAndMutate hammers one store from parallel readers and
// writers; run with -race to check the locking discipline.
func TestConcurrentSearchAndMutate(t *testing.T) {
	st, err := Create("", Options{CleanThreshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 200; i++ {
		if _, err := st.Insert(Row{
			"name": Strings(fmt.Sprintf("seed item %03d", i)),
			"rank": Num(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Writers: inserts, deletes, updates.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				switch rng.Intn(3) {
				case 0:
					if _, err := st.Insert(Row{"name": Strings(fmt.Sprintf("w%d item %d", seed, i))}); err != nil {
						errc <- err
						return
					}
				case 1:
					if err := st.Delete(TID(rng.Intn(200))); err != nil && err != ErrNotFound {
						errc <- err
						return
					}
				default:
					if _, err := st.Update(TID(rng.Intn(200)), Row{"name": Strings("rewritten")}); err != nil && err != ErrNotFound {
						errc <- err
						return
					}
				}
			}
		}(int64(w))
	}
	// Readers: searches and gets.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 60; i++ {
				q := NewQuery(5).
					WhereText("name", fmt.Sprintf("seed item %03d", rng.Intn(200))).
					WhereNum("rank", float64(rng.Intn(200)))
				if _, _, err := st.Search(q); err != nil {
					errc <- err
					return
				}
				if _, err := st.Get(TID(rng.Intn(400))); err != nil && err != ErrNotFound {
					errc <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The store must still be coherent: a fresh insert is findable.
	tid, err := st.Insert(Row{"name": Strings("final probe")})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := st.Search(NewQuery(1).WhereText("name", "final probe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TID != tid || res[0].Dist != 0 {
		t.Fatalf("post-churn probe: %v", res)
	}
}

// TestDefineAttrInsertSearchRace runs DefineAttr, Insert of rows naming
// attributes registered moments before, and Search on those attributes at
// once. A search walks every record it fetches against the catalog kinds it
// took under the index read lock, so a record whose attributes that snapshot
// missed would fail the walk. No call may fail, and once the writers stop,
// every query answers like brute force. Run with -race.
func TestDefineAttrInsertSearchRace(t *testing.T) {
	st, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 64; i++ {
		if _, err := st.Insert(Row{"n": Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 300
	var (
		wg       sync.WaitGroup
		latest   atomic.Int64 // the last row inserted
		searches atomic.Int64
		stop     = make(chan struct{})
		errCh    = make(chan error, 3) // one slot per goroutine
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			if err := st.DefineAttr(fmt.Sprintf("def-%d", i), Text); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := latest.Load()
				q := NewQuery(8).WhereText(fmt.Sprintf("ins-%d", i), "v").WhereText(fmt.Sprintf("def-%d", i), "w").WhereNum("n", float64(i%64))
				if _, _, err := st.Search(q); err != nil {
					errCh <- err
					return
				}
				searches.Add(1)
			}
		}()
	}
	for i := 0; i < rows && !t.Failed(); i++ {
		row := Row{"n": Num(float64(i % 64)), fmt.Sprintf("ins-%d", i): Strings("v"), fmt.Sprintf("def-%d", i): Strings("w")}
		if _, err := st.Insert(row); err != nil {
			t.Error(err)
		}
		latest.Store(int64(i))
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
	if searches.Load() == 0 {
		t.Fatal("no search completed; the race was not exercised")
	}
	for i := 0; i < rows; i += 23 {
		q := NewQuery(8).WhereText(fmt.Sprintf("ins-%d", i), "v").WhereText(fmt.Sprintf("def-%d", i), "w").WhereNum("n", float64(i%64))
		assertBruteForce(t, st, q, fmt.Sprintf("row %d", i))
	}
}
