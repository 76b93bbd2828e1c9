package iva

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCrashConsistency simulates a crash: the store is abandoned without
// Close after a Sync, with further unsynced writes on top. Reopening must
// recover exactly the synced prefix, pass the integrity check, and accept
// new writes (which safely overwrite the unsynced tail).
func TestCrashConsistency(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := st.Insert(Row{
			"name": Strings(fmt.Sprintf("durable %02d", i)),
			"seq":  Num(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes after the checkpoint, then "crash" (no Close).
	for i := 0; i < 15; i++ {
		if _, err := st.Insert(Row{"name": Strings("lost in the crash")}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon st. The write-through cache means the bytes are on "disk",
	// but the headers still describe the synced state.

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer st2.Close()
	if got := st2.Stats().Tuples; got != 40 {
		t.Fatalf("recovered %d tuples, want the synced 40", got)
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
// renamed, or the new catalog. The table and index were synced just before,
// so the old catalog's statistics may lag them; its attributes do not here.
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
