package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// skewedZoneStore builds a store whose numeric attribute tracks insertion
// order — the layout where stripe zone maps are maximally selective — over
// devices the caller keeps, so the files can be closed, damaged, and
// reopened. ckptEvery 8 over 256 rows seals 32 stripes.
func skewedZoneStore(t *testing.T) (tblDev, idxDev *storage.MemDevice, cat *table.Catalog, tbl *table.Table, ix *Index, num, txt model.AttrID, tids []model.TID) {
	t.Helper()
	pool := storage.NewPool(0, 1<<20)
	tblDev, idxDev = storage.NewMemDevice(), storage.NewMemDevice()
	cat = table.NewCatalog()
	var err error
	if num, err = cat.AddAttr("ts", model.KindNumeric); err != nil {
		t.Fatal(err)
	}
	if txt, err = cat.AddAttr("tag", model.KindText); err != nil {
		t.Fatal(err)
	}
	if tbl, err = table.New(storage.NewFile(pool, tblDev), cat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		vals := map[model.AttrID]model.Value{num: model.Num(float64(i))}
		if i%3 == 0 {
			vals[txt] = model.Text(fmt.Sprintf("tag-%d", i%7))
		}
		tid, _, err := tbl.Append(vals)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Build(tbl, storage.NewFile(pool, idxDev), Options{CheckpointEvery: 8}); err != nil {
		t.Fatal(err)
	}
	return
}

func requireSameResults(t *testing.T, stage string, want, got []model.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", stage, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", stage, i, got[i], want[i])
		}
	}
}

// TestZoneMapPruningByteIdentical is the core acceptance check: a selective
// query over the skewed layout must actually prune stripes, and the pruned
// answer must be byte-identical to the unpruned one at one and two workers.
func TestZoneMapPruningByteIdentical(t *testing.T) {
	_, _, _, _, ix, num, _, _ := skewedZoneStore(t)
	if known, sealed := ix.ZoneMapCoverage(); known != 32 || sealed != 32 {
		t.Fatalf("coverage %d/%d, want 32/32", known, sealed)
	}
	for _, par := range []int{1, 2} {
		ix.SetSearchParallelism(par)
		for _, k := range []int{1, 5} {
			q := (&model.Query{K: k}).NumTerm(num, 3)
			on, st, err := ix.Search(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.StripesZonePruned == 0 {
				t.Fatalf("par=%d k=%d: selective query pruned no stripes (%+v)", par, k, st)
			}
			if st.StripesZonePruned > st.StripesZoneChecked {
				t.Fatalf("par=%d k=%d: pruned %d > checked %d", par, k, st.StripesZonePruned, st.StripesZoneChecked)
			}
			ix.SetZoneMaps(false)
			off, stOff, err := ix.Search(q, nil)
			ix.SetZoneMaps(true)
			if err != nil {
				t.Fatal(err)
			}
			if stOff.StripesZonePruned != 0 || stOff.StripesZoneChecked != 0 {
				t.Fatalf("par=%d k=%d: zones-off still touched zone maps (%+v)", par, k, stOff)
			}
			requireSameResults(t, fmt.Sprintf("par=%d k=%d", par, k), off, on)
			if stOff.Scanned <= st.Scanned {
				t.Fatalf("par=%d k=%d: pruning did not reduce scanned tuples (%d vs %d)",
					par, k, st.Scanned, stOff.Scanned)
			}
		}
	}
}

// TestZoneMapEmptyStripeSkipped deletes every tuple of one sealed stripe:
// its live count reaches zero, so the stripe is skipped unconditionally —
// regardless of the bar — with answers unchanged.
func TestZoneMapEmptyStripeSkipped(t *testing.T) {
	_, _, _, _, ix, num, _, tids := skewedZoneStore(t)
	for _, tid := range tids[8:16] { // stripe 1 (ckptEvery 8)
		if err := ix.Delete(tid); err != nil {
			t.Fatal(err)
		}
	}
	// A query centered on the deleted stripe's values: zones on must still
	// answer from the neighbors, identically to zones off.
	q := (&model.Query{K: 4}).NumTerm(num, 11)
	on, st, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.StripesZonePruned == 0 {
		t.Fatalf("emptied stripe was not skipped (%+v)", st)
	}
	ix.SetZoneMaps(false)
	off, _, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "empty stripe", off, on)
	for _, r := range on {
		if r.TID >= tids[8] && r.TID <= tids[15] {
			t.Fatalf("deleted tuple %d resurfaced", r.TID)
		}
	}
}

// TestZoneMapCorruption flips one committed zone byte and proves the
// degradation contract directly: DegradeReads drops the records and answers
// are unchanged with pruning off (scrub stays dirty until rebuild); Strict
// refuses the open with a typed corruption error.
func TestZoneMapCorruption(t *testing.T) {
	tblDev, idxDev, cat, _, ix, num, _, _ := skewedZoneStore(t)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	q := (&model.Query{K: 3}).NumTerm(num, 100)
	want, _, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	exts := ix.ZoneExtents()
	if len(exts) == 0 {
		t.Fatal("no committed zone extents")
	}
	off := exts[0].Offset + exts[0].Len/2
	var b [1]byte
	if _, err := idxDev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := idxDev.WriteAt([]byte{b[0] ^ 0x40}, off); err != nil {
		t.Fatal(err)
	}

	reopen := func(stage string, opts Options) (*Index, error) {
		p := storage.NewPool(0, 1<<20)
		tb, err := table.Open(storage.NewFile(p, tblDev), cat)
		if err != nil {
			t.Fatalf("%s: table open: %v", stage, err)
		}
		return Open(storage.NewFile(p, idxDev), tb, opts)
	}

	ix2, err := reopen("degrade", Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatalf("degrade open rejected zone damage: %v", err)
	}
	if ix2.DroppedZones() == 0 {
		t.Fatal("degrade open dropped no zone records")
	}
	if ix2.ZoneMapsOn() {
		t.Fatal("pruning still on after zone damage")
	}
	got, st, err := ix2.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.StripesZonePruned != 0 {
		t.Fatalf("pruned %d stripes from dropped zone maps", st.StripesZonePruned)
	}
	requireSameResults(t, "degrade", want, got)
	rep, err := ix2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("scrub missed the flipped zone byte")
	}
	if rep.DroppedZones == 0 {
		t.Fatalf("scrub did not report the dropped zone records: %+v", rep)
	}

	if _, err := reopen("strict", Options{CheckpointEvery: 8, Integrity: IntegrityStrict}); err == nil {
		t.Fatal("strict open accepted a flipped zone byte")
	} else {
		var ce *storage.CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("strict open failed with a non-corruption error: %v", err)
		}
	}
}

// TestZoneMapDisableOption proves the A/B escape hatch: an index after
// SetZoneMaps(false) answers identically and never consults a zone record,
// while still recording summaries for when pruning is re-enabled.
func TestZoneMapDisableOption(t *testing.T) {
	_, _, _, _, ix, num, _, _ := skewedZoneStore(t)
	q := (&model.Query{K: 2}).NumTerm(num, 9)
	on, stOn, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stOn.StripesZonePruned == 0 {
		t.Fatalf("baseline query pruned nothing (%+v)", stOn)
	}
	ix.SetZoneMaps(false)
	if ix.ZoneMapsOn() {
		t.Fatal("ZoneMapsOn after SetZoneMaps(false)")
	}
	off, stOff, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stOff.StripesZoneChecked != 0 {
		t.Fatalf("disabled index consulted %d zone records", stOff.StripesZoneChecked)
	}
	requireSameResults(t, "disabled", on, off)
	// Recording continued: re-enabling restores pruning immediately.
	ix.SetZoneMaps(true)
	again, stAgain, err := ix.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stAgain.StripesZonePruned == 0 {
		t.Fatal("re-enabled index no longer prunes")
	}
	requireSameResults(t, "re-enabled", on, again)
}

// TestZoneMapMidStripeReopen reopens an index whose tuple list ends inside a
// stripe. The reopened instance never observed that stripe's first entries,
// so the stripe seals with an explicit "unknown" record — record s keeps
// describing stripe s — while the stripes sealed after it carry real
// summaries again, and answers match with pruning on and off.
func TestZoneMapMidStripeReopen(t *testing.T) {
	tblDev, idxDev, cat, tbl, ix, num, _, _ := skewedZoneStore(t)
	for i := 0; i < 3; i++ { // 256 rows sealed 32 stripes; 3 more open the 33rd
		if _, err := ix.Insert(map[model.AttrID]model.Value{num: model.Num(float64(256 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}

	p := storage.NewPool(0, 1<<20)
	tb2, err := table.Open(storage.NewFile(p, tblDev), cat)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(storage.NewFile(p, idxDev), tb2, Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if known, sealed := ix2.ZoneMapCoverage(); known != 32 || sealed != 32 {
		t.Fatalf("reopened coverage %d/%d, want 32/32", known, sealed)
	}
	for i := 3; i < 16; i++ { // fills stripe 33, then all of stripe 34
		if _, err := ix2.Insert(map[model.AttrID]model.Value{num: model.Num(float64(256 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if known, sealed := ix2.ZoneMapCoverage(); known != 33 || sealed != 34 {
		t.Fatalf("coverage %d/%d after the open stripe sealed, want 33/34 (stripe 33 unknown)", known, sealed)
	}
	if err := ix2.Sync(); err != nil {
		t.Fatal(err)
	}
	q := (&model.Query{K: 2}).NumTerm(num, 9)
	on, st, err := ix2.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.StripesZonePruned == 0 {
		t.Fatalf("no stripe pruned after the reopen (%+v)", st)
	}
	ix2.SetZoneMaps(false)
	off, _, err := ix2.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "mid-stripe reopen", off, on)
}
