package iva

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/repl"
)

// bruteForce answers q by the definition: the exact distance of every live
// tuple, the k smallest. It returns them with the distance of every tuple, so
// that a caller can accept any order among equals.
func bruteForce(t *testing.T, st *Store, q *Query) ([]float64, map[TID]float64) {
	t.Helper()
	st.engineMu.RLock()
	defer st.engineMu.RUnlock()
	mq := st.resolveQuery(q)
	dist := make(map[TID]float64)
	var all []float64
	err := st.tbl.Scan(func(_ int64, tp *model.Tuple) error {
		if st.ix.Live(tp.TID) {
			d := st.met.TupleDistance(mq, tp)
			dist[TID(tp.TID)] = d
			all = append(all, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(all)
	return all[:min(q.k, len(all))], dist
}

// assertBruteForce requires a search to return what bruteForce does.
func assertBruteForce(t *testing.T, st *Store, q *Query, tag string) {
	t.Helper()
	res, _, err := st.Search(q)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	want, dist := bruteForce(t, st, q)
	if len(res) != len(want) {
		t.Fatalf("%s: %d results, brute force has %d", tag, len(res), len(want))
	}
	for i, r := range res {
		if d, ok := dist[r.TID]; !ok || d != r.Dist || r.Dist != want[i] {
			t.Fatalf("%s: result %d is {%d %v}; brute force has that tuple at %v and rank %d at %v", tag, i, r.TID, r.Dist, d, i, want[i])
		}
	}
}

// TestOpenRecoversInterruptedSwap composes, from the files of a real rebuild,
// each state a crash can leave install's swap in, and requires Open to bring
// the directory back to one whole generation — the old one, byte for byte,
// when the swap had not begun; the new one when it was cut between its two
// renames — with nothing of ".new" left, a clean Check and Scrub, every synced
// row there and a search equal to brute force.
func TestOpenRecoversInterruptedSwap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opts := Options{CleanThreshold: -1, GrowthRebuildFactor: -1}
	st, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[TID]Row)
	var tids []TID
	for i := 0; i < 150; i++ {
		row := Row{
			"name":  Strings(fmt.Sprintf("item %03d", i)),
			"brand": Strings([]string{"canon", "sony", "nikon"}[i%3]),
			"price": Num(float64(i%40) * 2.5),
		}
		tid, err := st.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		rows[tid], tids = row, append(tids, tid)
	}
	for i := 0; i < len(tids); i += 3 {
		if err := st.Delete(tids[i]); err != nil {
			t.Fatal(err)
		}
		delete(rows, tids[i])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		t.Helper()
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	oldTbl, oldIx, cat := read(tableFileName), read(indexFileName), read(catalogFileName)

	// The rebuild's files, taken before anything else touches them: a crash
	// right after the swap has written no catalog and synced nothing since.
	if st, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebuild(); err != nil {
		t.Fatal(err)
	}
	newTbl, newIx := read(tableFileName), read(indexFileName)
	st.Close()
	if bytes.Equal(oldTbl, newTbl) || bytes.Equal(oldIx, newIx) {
		t.Fatal("the rebuild changed nothing: the states below would not tell the generations apart")
	}

	states := []struct {
		name           string
		files          map[string][]byte
		wantTbl, wantI []byte
	}{
		{"both new files written, swap not begun",
			map[string][]byte{tableFileName: oldTbl, indexFileName: oldIx, tableFileName + newSuffix: newTbl, indexFileName + newSuffix: newIx},
			oldTbl, oldIx},
		{"new table half written",
			map[string][]byte{tableFileName: oldTbl, indexFileName: oldIx, tableFileName + newSuffix: newTbl[:len(newTbl)/2]},
			oldTbl, oldIx},
		{"new index half written",
			map[string][]byte{tableFileName: oldTbl, indexFileName: oldIx, tableFileName + newSuffix: newTbl, indexFileName + newSuffix: newIx[:len(newIx)/2]},
			oldTbl, oldIx},
		{"table renamed, index not",
			map[string][]byte{tableFileName: newTbl, indexFileName: oldIx, indexFileName + newSuffix: newIx},
			newTbl, newIx},
		{"swap complete",
			map[string][]byte{tableFileName: newTbl, indexFileName: newIx},
			newTbl, newIx},
	}
	queries := []*Query{
		NewQuery(5).WhereText("name", "item 042"),
		NewQuery(8).WhereText("brand", "sonny").WhereNum("price", 70),
		NewQuery(3).WhereNum("price", 12),
	}
	for i, sc := range states {
		t.Run(sc.name, func(t *testing.T) {
			d := filepath.Join(t.TempDir(), fmt.Sprintf("state-%d", i))
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			sc.files[catalogFileName] = cat
			for name, blob := range sc.files {
				if err := os.WriteFile(filepath.Join(d, name), blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ents, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			if want := []string{catalogFileName, indexFileName, tableFileName}; !reflect.DeepEqual(names, want) {
				t.Fatalf("directory after Open: %v, want %v", names, want)
			}
			for name, want := range map[string][]byte{tableFileName: sc.wantTbl, indexFileName: sc.wantI} {
				got, err := os.ReadFile(filepath.Join(d, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s is not the generation recovery owes, byte for byte", name)
				}
			}
			chk, err := st.Check()
			if err != nil || !chk.Ok() {
				t.Fatalf("check: %v %v", err, chk.Problems)
			}
			rep, err := st.Scrub()
			if err != nil || !rep.Clean() {
				t.Fatalf("scrub: %v %v", err, rep)
			}
			if ss := st.Stats(); ss.Tuples != int64(len(rows)) {
				t.Fatalf("%d live tuples, want %d", ss.Tuples, len(rows))
			}
			for tid, want := range rows {
				got, err := st.Get(tid)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("row %d: %v %v, want %v", tid, got, err, want)
				}
			}
			for qi, q := range queries {
				assertBruteForce(t, st, q, fmt.Sprintf("query %d", qi))
			}
			if _, err := st.Insert(Row{"price": Num(1)}); err != nil {
				t.Fatalf("insert on the recovered store: %v", err)
			}
		})
	}
}

// heldSource is a primary the follower cannot reach while held: polls come
// back empty, so the follower stays where it is.
type heldSource struct {
	inner localSource
	held  atomic.Bool
}

func (h *heldSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	if h.held.Load() {
		return &repl.Batch{Epoch: epoch, PrimaryGen: from}, nil
	}
	return h.inner.Deltas(ctx, epoch, from)
}

// TestSearchDuringResync runs a search loop on a follower while it crosses a
// primary rebuild. The Full delta its poll is answered with is written beside
// the live generation and swapped in, so every search is answered, without an
// error, by one whole generation: the one before the swap or the one after.
func TestSearchDuringResync(t *testing.T) {
	base := t.TempDir()
	primary, err := Create(filepath.Join(base, "primary"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(81))}
	for i := 0; i < 400; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src := &heldSource{inner: localSource{primary}}
	follower, err := openFollower(filepath.Join(base, "follower"), src, FollowerOptions{Poll: 2 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)

	queries := replQueries(rand.New(rand.NewSource(42)))
	answers := func() [][]Result {
		var out [][]Result
		for _, q := range queries {
			res, _, err := primary.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	before := answers()
	// The follower is held at its generation while the primary moves on and
	// rebuilds: no incremental delta leads from here to there.
	src.held.Store(true)
	for i := 0; i < 150; i++ {
		w.step(t, primary, 1000+i)
	}
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	after := answers()
	if reflect.DeepEqual(before, after) {
		t.Fatal("the two generations answer alike: the loop below could not tell them apart")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	var seen [2]atomic.Int64 // searches answered by the old, the new generation
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				for qi, q := range queries {
					res, _, err := follower.Search(q)
					switch {
					case err != nil:
						errCh <- fmt.Errorf("query %d: %w", qi, err)
						return
					case reflect.DeepEqual(res, before[qi]):
						seen[0].Add(1)
					case reflect.DeepEqual(res, after[qi]):
						seen[1].Add(1)
					default:
						errCh <- fmt.Errorf("query %d answered by neither generation: %v", qi, res)
						return
					}
				}
			}
		}()
	}
	waitSeen := func(gen int) {
		for deadline := time.Now().Add(15 * time.Second); seen[gen].Load() == 0 && len(errCh) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	waitSeen(0)
	resyncs := follower.fol.resyncs.Value()
	src.held.Store(false)
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	waitSeen(1)
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if follower.fol.resyncs.Value() == resyncs {
		t.Fatal("the follower caught up without a Full delta: the swap was not exercised")
	}
	if seen[0].Load() == 0 || seen[1].Load() == 0 {
		t.Fatalf("searches answered by the old/new generation: %d/%d, want some of each", seen[0].Load(), seen[1].Load())
	}
	ents, err := os.ReadDir(follower.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), newSuffix) {
			t.Fatalf("%s left behind by the swap", e.Name())
		}
	}
}
