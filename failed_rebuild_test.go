package iva

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestFailedRebuildLeavesStoreIntact fails an explicit Rebuild at every
// device operation of its two ".new" files in turn (torn writes on odd
// budgets) and requires the store that keeps serving to be exactly what it
// was: catalog statistics (a failed table copy used to leave the survivors'
// partial counts in the shared catalog), search answers, a clean scrub, no
// ".new" file on disk or in the pool, the store's pair still under its own
// names (install renames what it swapped in, discards what it did not), no
// pinned frame. The first budget the rebuild fits in must succeed.
func TestFailedRebuildLeavesStoreIntact(t *testing.T) {
	for _, target := range []string{tableFileName + newSuffix, indexFileName + newSuffix} {
		t.Run(target, func(t *testing.T) {
			var budget atomic.Int64
			var last atomic.Pointer[storage.FaultDevice]
			opts := Options{
				CleanThreshold:      -1,
				GrowthRebuildFactor: -1,
				deviceHook: func(name string, dev storage.Device) storage.Device {
					if name != target {
						return dev
					}
					fd := storage.NewFaultDevice(dev, budget.Load())
					fd.SetTornWrites(budget.Load()%2 == 1)
					last.Store(fd)
					return fd
				},
			}
			dir := t.TempDir() + "/store"
			st, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var tids []TID
			for i := 0; i < 200; i++ {
				tid, err := st.Insert(Row{
					"name":  Strings(fmt.Sprintf("item %03d", i), "stock"),
					"brand": Strings([]string{"canon", "sony", "nikon"}[i%3]),
					"price": Num(float64(i%50) * 3.5),
				})
				if err != nil {
					t.Fatal(err)
				}
				tids = append(tids, tid)
			}
			for i := 0; i < 200; i += 7 {
				if err := st.Delete(tids[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}

			queries := []*Query{
				NewQuery(5).WhereText("name", "item 042"),
				NewQuery(8).WhereText("brand", "sonny").WhereNum("price", 70),
				NewQuery(3).WhereNum("price", 12),
			}
			type state struct {
				cat     string
				answers [][]Result
				files   []string
				pool    int
				pair    string
				scrub   string
			}
			observe := func() state {
				t.Helper()
				var s state
				s.cat = fmt.Sprintf("%+v", st.cat.Attrs())
				for _, q := range queries {
					res, _, err := st.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					s.answers = append(s.answers, res)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					s.files = append(s.files, e.Name())
				}
				sort.Strings(s.files)
				s.pool = st.pool.Files()
				s.pair = st.tblFile.name + " " + st.ixFile.name
				rep, err := st.Scrub()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("scrub: %v", rep.Problems)
				}
				s.scrub = fmt.Sprintf("%+v", *rep)
				if n := st.pool.PinnedFrames(); n != 0 {
					t.Fatalf("%d frames left pinned", n)
				}
				return s
			}
			before := observe()
			if strings.Contains(strings.Join(before.files, " "), ".new") {
				t.Fatalf("store directory starts with rebuild leftovers: %v", before.files)
			}

			failures := 0
			for b := int64(0); ; b++ {
				budget.Store(b)
				err := st.Rebuild()
				fd := last.Load()
				if err == nil {
					if fd.Tripped() {
						t.Fatalf("budget %d: rebuild succeeded past an injected fault", b)
					}
					break
				}
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("budget %d: rebuild failed with a non-injected error: %v", b, err)
				}
				failures++
				if after := observe(); !reflect.DeepEqual(after, before) {
					t.Fatalf("budget %d: a failed rebuild changed the store:\nbefore %+v\n after %+v", b, before, after)
				}
			}
			if failures < 5 {
				t.Fatalf("only %d budgets failed: the sweep did not reach into the rebuild", failures)
			}
			// The rebuild that fit went through: same answers over compacted
			// files, one explicit rebuild counted, nothing of ".new" left.
			after := observe()
			if !reflect.DeepEqual(after.answers, before.answers) || !reflect.DeepEqual(after.files, before.files) ||
				after.pool != before.pool || after.pair != before.pair {
				t.Fatalf("after the successful rebuild:\nbefore %+v\n after %+v", before, after)
			}
			if ss := st.Stats(); ss.Deleted != 0 || ss.Rebuilds != 1 || ss.RebuildsBy.Explicit != 1 {
				t.Fatalf("stats after the successful rebuild: %+v", ss)
			}
			if err := st.Rebuild(); err != nil {
				t.Fatalf("second rebuild: %v", err)
			}
		})
	}
}
