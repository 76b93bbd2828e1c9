package iva

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestUpdateFailureKeepsOldTuple fails an Update at every device operation of
// either file in turn (torn writes on odd budgets). Whatever the operation, the
// store the error leaves behind still holds the old tuple with its old row,
// shows nothing of the new one, and passes Check; the first budget the update
// fits in replaces the tuple. (An Update used to tombstone first and learn
// afterwards whether the new record could be written.)
func TestUpdateFailureKeepsOldTuple(t *testing.T) {
	for _, target := range []string{tableFileName, indexFileName} {
		t.Run(target, func(t *testing.T) {
			var fd *storage.FaultDevice
			st, err := Create(t.TempDir()+"/store", Options{
				CleanThreshold:      -1,
				GrowthRebuildFactor: -1,
				deviceHook: func(name string, dev storage.Device) storage.Device {
					if name != target {
						return dev
					}
					fd = storage.NewFaultDevice(dev, -1)
					return fd
				},
			})
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
			// Synced, so that the deletion lands behind a committed end.
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			old := tids[42]
			oldRow, err := st.Get(old)
			if err != nil {
				t.Fatal(err)
			}
			// "color" is new to the store: the update also starts a vector list.
			newRow := Row{"name": Strings("replacement"), "color": Strings("teal"), "price": Num(999)}
			oldQ := NewQuery(1).WhereText("name", "item 042").WhereNum("price", 42*3.5)
			newQ := NewQuery(1).WhereText("name", "replacement").WhereNum("price", 999)
			exact := func(q *Query) (TID, bool) {
				t.Helper()
				res, _, err := st.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				return res[0].TID, res[0].Dist == 0
			}
			failures := 0
			for budget := int64(0); ; budget++ {
				fd.Reset(budget)
				fd.SetTornWrites(budget%2 == 1)
				newTID, err := st.Update(old, newRow)
				tripped := fd.Tripped()
				fd.Reset(-1)
				if err == nil {
					if tripped {
						t.Fatalf("budget %d: update succeeded past an injected fault", budget)
					}
					if _, err := st.Get(old); err != ErrNotFound {
						t.Fatalf("old tuple after the update that fit: %v", err)
					}
					if tid, ok := exact(newQ); !ok || tid != newTID {
						t.Fatalf("new tuple %d not found after the update that fit (got %d, exact=%v)", newTID, tid, ok)
					}
					break
				}
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("budget %d: update failed with a non-injected error: %v", budget, err)
				}
				failures++
				if row, err := st.Get(old); err != nil || !reflect.DeepEqual(row, oldRow) {
					t.Fatalf("budget %d: old tuple after a failed update: %v %v", budget, row, err)
				}
				if tid, ok := exact(oldQ); !ok || tid != old {
					t.Fatalf("budget %d: search no longer finds the old tuple (got %d, exact=%v)", budget, tid, ok)
				}
				if tid, ok := exact(newQ); ok {
					t.Fatalf("budget %d: search finds the new row as tuple %d after a failed update", budget, tid)
				}
				if ss := st.Stats(); ss.Tuples != 200 || ss.Deleted != 0 {
					t.Fatalf("budget %d: %d live, %d deleted after a failed update", budget, ss.Tuples, ss.Deleted)
				}
				rep, err := st.Check()
				if err != nil || !rep.Ok() || rep.Entries != 200 {
					t.Fatalf("budget %d: check after a failed update: %v, %d entries, %v", budget, err, rep.Entries, rep.Problems)
				}
			}
			t.Logf("%d budgets failed", failures)
			if min := map[string]int{tableFileName: 1, indexFileName: 5}[target]; failures < min {
				t.Fatalf("only %d budgets failed: the sweep did not reach into the update", failures)
			}
			if rep, err := st.Check(); err != nil || !rep.Ok() || rep.Live != 200 {
				t.Fatalf("check after the update: %v %+v", err, rep)
			}
			if srep, err := st.Scrub(); err != nil || !srep.Clean() {
				t.Fatalf("scrub after the update: %v %+v", err, srep)
			}
		})
	}
}

// TestSameCallsSameFiles runs one seeded script of writes twice, through each
// entry point, with no attribute defined ahead of its first use: the two runs
// must leave byte-identical files. (Unseen names used to be registered in map
// order, so attribute ids — and with them every list and record — differed
// from run to run.)
func TestSameCallsSameFiles(t *testing.T) {
	names := []string{"title", "brand", "color", "price", "weight", "year", "rating", "stock", "origin", "size", "model", "tag"}
	script := func(t *testing.T, batched bool) [3][sha256.Size]byte {
		t.Helper()
		dir := t.TempDir() + "/store"
		st, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(19))
		var rows []Row
		for i := 0; i < 3000; i++ {
			row := Row{}
			for _, j := range rng.Perm(len(names))[:8] {
				if j%2 == 0 {
					row[names[j]] = Strings(fmt.Sprintf("%s %d", names[j], rng.Intn(40)))
				} else {
					row[names[j]] = Num(float64(rng.Intn(1000)))
				}
			}
			rows = append(rows, row)
		}
		if batched {
			for lo := 0; lo < len(rows); lo += 250 {
				if _, err := st.InsertBatch(rows[lo : lo+250]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, row := range rows {
				if _, err := st.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var sums [3][sha256.Size]byte
		for i, name := range []string{catalogFileName, tableFileName, indexFileName} {
			blob, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = sha256.Sum256(blob)
		}
		return sums
	}
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			if a, b := script(t, batched), script(t, batched); a != b {
				t.Fatalf("two runs of the same calls wrote different files:\ncatalog %x / %x\n  table %x / %x\n  index %x / %x",
					a[0][:6], b[0][:6], a[1][:6], b[1][:6], a[2][:6], b[2][:6])
			}
		})
	}
}

// closeCounter counts the Close calls of the device it wraps.
type closeCounter struct {
	storage.Device
	closes *atomic.Int64
}

func (d closeCounter) Close() error {
	d.closes.Add(1)
	return d.Device.Close()
}

// TestFailedOpenClosesFiles: an Open or Create that fails after it has opened
// a file closes it again. (Both used to return with the descriptors open.)
func TestFailedOpenClosesFiles(t *testing.T) {
	var opens, closes atomic.Int64
	var failIndex atomic.Bool
	opts := Options{
		deviceHook: func(name string, dev storage.Device) storage.Device {
			opens.Add(1)
			if name == indexFileName && failIndex.Load() {
				dev = storage.NewFaultDevice(dev, 0)
			}
			return closeCounter{dev, &closes}
		},
	}
	dir := t.TempDir() + "/store"
	st, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(Row{"a": Num(1)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 2 || closes.Load() != 2 {
		t.Fatalf("a store's life: %d opens, %d closes", opens.Load(), closes.Load())
	}

	// A smashed superblock fails the open after both files are open.
	idx := filepath.Join(dir, indexFileName)
	blob, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	blob[30] ^= 0xFF
	if err := os.WriteFile(idx, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Open(dir, opts); err == nil {
			t.Fatal("open of a store with a smashed index succeeded")
		}
	}
	if opens.Load() != 8 || closes.Load() != 8 {
		t.Fatalf("after three failed opens: %d opens, %d closes", opens.Load(), closes.Load())
	}

	// A Create whose index build fails on its first device operation.
	failIndex.Store(true)
	if _, err := Create(t.TempDir()+"/other", opts); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("create over a failing index device: %v", err)
	}
	if opens.Load() != 10 || closes.Load() != 10 {
		t.Fatalf("after the failed create: %d opens, %d closes", opens.Load(), closes.Load())
	}
}
