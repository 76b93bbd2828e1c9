package iva

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestCrashConsistency simulates a crash: the store is abandoned without
// Close after a Sync, with further unsynced writes on top — a delete, an
// update and inserts. Reopening must recover exactly the synced prefix, pass
// the integrity check, and accept new writes (which safely overwrite the
// unsynced tail).
func TestCrashConsistency(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// β off: a cleaning rebuild after the delete would commit it.
	opts := Options{CleanThreshold: -1}
	st, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tids []TID
	for i := 0; i < 40; i++ {
		tid, err := st.Insert(Row{
			"name": Strings(fmt.Sprintf("durable %02d", i)),
			"seq":  Num(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes after the checkpoint, then "crash" (no Close).
	if err := st.Delete(tids[5]); err != nil {
		t.Fatal(err)
	}
	updated, err := st.Update(tids[6], Row{"name": Strings("updated 06")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := st.Insert(Row{"name": Strings("lost in the crash")}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon st. The write-through cache means the bytes are on "disk",
	// but the headers still describe the synced state.

	st2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer st2.Close()
	if got := st2.Stats().Tuples; got != 40 {
		t.Fatalf("recovered %d tuples, want the synced 40", got)
	}
	scanned := 0
	if err := st2.Scan(func(TID, Row) bool { scanned++; return true }); err != nil {
		t.Fatal(err)
	}
	if scanned != 40 {
		t.Fatalf("Scan yields %d tuples, Stats 40", scanned)
	}
	// The unsynced delete and update are undone: both rows read as synced,
	// and the update's new tuple does not exist.
	for _, i := range []int{5, 6} {
		row, err := st2.Get(tids[i])
		if err != nil {
			t.Fatalf("synced tuple %d lost to an unsynced write: %v", tids[i], err)
		}
		if want := Strings(fmt.Sprintf("durable %02d", i)); !reflect.DeepEqual(row["name"], want) {
			t.Fatalf("tuple %d reads %v, want the synced %v", tids[i], row["name"], want)
		}
	}
	if _, err := st2.Get(updated); err != ErrNotFound {
		t.Fatalf("unsynced update's tuple %d: %v, want ErrNotFound", updated, err)
	}
	rep, err := st2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("recovered store inconsistent: %v", rep.Problems)
	}
	// Synced data is queryable.
	res, _, err := st2.Search(NewQuery(1).WhereText("name", "durable 23"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("synced tuple lost: %v", res)
	}
	// Unsynced data is gone, not half-present.
	res, _, err = st2.Search(NewQuery(1).WhereText("name", "lost in the crash"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 1 && res[0].Dist == 0 {
		t.Fatal("unsynced tuple survived the crash intact (header not authoritative)")
	}
	// New writes land cleanly over the abandoned tail.
	tid, err := st2.Insert(Row{"name": Strings("post crash")})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = st2.Search(NewQuery(1).WhereText("name", "post crash"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TID != tid || res[0].Dist != 0 {
		t.Fatalf("post-crash insert not found: %v", res)
	}
	rep, err = st2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("post-crash store inconsistent: %v", rep.Problems)
	}
}

// TestSyncCatalogCrash kills the catalog write of a Sync at each of its steps
// and reopens. Sync replaces catalog.bin by write-to-temp, fsync, rename, so
// the committed catalog's bytes are never overwritten in place (a hard link
// taken before the Sync still reads the old catalog afterwards), and a crash
// leaves one of three directory states, each of which must open and answer:
// a torn temp file beside the old catalog, a complete temp file not yet
// renamed, or the new catalog. The states are built beside the synced table
// and index, which the old catalog's statistics lag; its attributes do not
// here (TestSyncNewAttributeCrash is the case where they would).
func TestSyncCatalogCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	catPath := filepath.Join(dir, catalogFileName)
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := fillStore(t, st, 40)
	oldCat, err := os.ReadFile(catPath)
	if err != nil {
		t.Fatal(err)
	}
	witness := filepath.Join(t.TempDir(), "committed-catalog")
	if err := os.Link(catPath, witness); err != nil {
		t.Skipf("hard links unavailable: %v", err)
	}

	fillStore(t, st, 25) // same attributes, new statistics; ends in Sync
	want, _, err := st.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	newCat, err := os.ReadFile(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(newCat, oldCat) {
		t.Fatal("fixture: the second Sync did not change the catalog")
	}
	if got, err := os.ReadFile(witness); err != nil || !bytes.Equal(got, oldCat) {
		t.Fatalf("Sync overwrote the committed catalog in place (err %v)", err)
	}
	if _, err := os.Stat(catPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Sync left its temp file behind (err %v)", err)
	}
	// Abandon st without Close: the directory is what a crash leaves.

	for _, tc := range []struct {
		name     string
		cat, tmp []byte
	}{
		{"temp-torn", oldCat, newCat[:len(newCat)/2]},
		{"temp-empty", oldCat, []byte{}},
		{"before-rename", oldCat, newCat},
		{"after-rename", newCat, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(catPath, tc.cat, 0o644); err != nil {
				t.Fatal(err)
			}
			os.Remove(catPath + ".tmp")
			if tc.tmp != nil {
				if err := os.WriteFile(catPath+".tmp", tc.tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := st2.Stats().Tuples; got != 65 {
				t.Fatalf("recovered %d tuples, want the synced 65", got)
			}
			got, _, err := st2.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered store answers %v, want %v", got, want)
			}
			// The next Sync (Close) completes over whatever the crash left.
			if err := st2.Close(); err != nil {
				t.Fatalf("sync after recovery: %v", err)
			}
			if _, err := os.Stat(catPath + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("recovery Sync left the temp file behind (err %v)", err)
			}
			if st3, err := Open(dir, Options{}); err != nil {
				t.Fatalf("reopen after recovery sync: %v", err)
			} else {
				st3.Close()
			}
		})
	}
}

// syncSpy is a device that calls onSync after every fsync it passes on.
type syncSpy struct {
	storage.Device
	onSync func()
}

func (d syncSpy) Sync() error {
	err := d.Device.Sync()
	d.onSync()
	return err
}

// TestSyncNewAttributeCrash crashes a Sync whose rows define a new attribute,
// Brand, right after each fsync of the table or the index file — before the
// files commit, between them, after both — and reopens the directory as it
// stood then; the last state is the whole Sync. Sync writes the catalog first,
// so every state holds the new catalog, beside old files or new ones. Each
// must answer like brute force, pass Rebuild and Scrub, and give a later
// DefineAttr a fresh id. A catalog written after the files left Brand out of
// the state where the files had committed: no Rebuild could walk the Brand
// records again, and the next new attribute took Brand's id, so the records
// answered for it.
func TestSyncNewAttributeCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var (
		armed  bool
		states []map[string][]byte
	)
	st, err := Create(dir, Options{deviceHook: func(_ string, dev storage.Device) storage.Device {
		return syncSpy{dev, func() {
			if armed {
				states = append(states, readDir(t, dir))
			}
		}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := fillStore(t, st, 40)
	for i := 0; i < 10; i++ {
		if _, err := st.Insert(Row{"Type": Strings("Digital Camera"), "Price": Num(float64(120 + i)), "Brand": Strings("Canon")}); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	armed = false
	if len(states) < 2 {
		t.Fatalf("fixture: the Sync made %d fsyncs of the table and index files", len(states))
	}
	// Abandon st without Close: each state is what a crash leaves.

	for i, state := range states {
		t.Run(fmt.Sprint("after-fsync-", i+1), func(t *testing.T) {
			for name := range readDir(t, dir) {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			for name, b := range state {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st.Close()
			brand := NewQuery(5).WhereText("Brand", "Canon").WhereNum("Price", 125)
			assertBruteForce(t, st, q, "reopened")
			assertBruteForce(t, st, brand, "reopened, Brand")
			if err := st.Rebuild(); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if rep, err := st.Scrub(); err != nil || !rep.Clean() {
				t.Fatalf("scrub: %v %+v", err, rep)
			}
			assertBruteForce(t, st, brand, "rebuilt, Brand")
			if err := st.DefineAttr("Color", Text); err != nil {
				t.Fatal(err)
			}
			err = st.Scan(func(tid TID, row Row) bool {
				if _, ok := row["Color"]; ok {
					t.Errorf("tuple %d defines Color, registered after every tuple was written: %v", tid, row)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			assertBruteForce(t, st, NewQuery(5).WhereText("Color", "red"), "Color")
		})
	}
}
