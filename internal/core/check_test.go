package core

import (
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

func TestCheckCleanIndex(t *testing.T) {
	fx := newFixture(t, 150, Options{}, 401)
	rep, err := fx.ix.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean index reported problems: %v", rep.Problems)
	}
	if rep.Live != 150 || rep.Entries != 150 {
		t.Fatalf("live=%d entries=%d", rep.Live, rep.Entries)
	}
	if rep.VectorElems == 0 {
		t.Fatal("no vector elements verified")
	}
}

func TestCheckAfterChurn(t *testing.T) {
	fx := newFixture(t, 100, Options{}, 402)
	for i := 0; i < 30; i++ {
		if _, err := fx.ix.Insert(fx.randValues()); err != nil {
			t.Fatal(err)
		}
	}
	for tid := model.TID(0); tid < 40; tid += 3 {
		if err := fx.ix.Delete(tid); err != nil && err != ErrNotFound {
			t.Fatal(err)
		}
	}
	rep, err := fx.ix.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("churned index reported problems: %v", rep.Problems)
	}
	if rep.Live >= rep.Entries {
		t.Fatal("tombstones not reflected")
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	fx := newFixture(t, 60, Options{}, 403)
	// Corrupt one live tuple-list ptr to point at a wrong (valid) record.
	var pos int64 = -1
	for p, e := range fx.ix.entries {
		if !e.deleted && p > 0 {
			pos = int64(p)
			break
		}
	}
	if pos < 0 {
		t.Fatal("no live entry")
	}
	wrongPtr := uint64(fx.ix.entries[0].ptr)
	overwriteBits(t, fx.ix.segs, fx.ix.tupleChain, pos*int64(fx.ix.elemBits())+int64(fx.ix.ltid), wrongPtr, ptrBits)
	rep, err := fx.ix.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("corrupted ptr not detected")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "tuple list says") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexpected problem set: %v", rep.Problems)
	}
}

// TestCheckDetectsDeletionListDamage rewrites deletion-list entries on disk:
// a position named twice and one past the tuple list are both reported.
func TestCheckDetectsDeletionListDamage(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  func(ix *Index) uint64
		want string
	}{
		{"twice", func(ix *Index) uint64 { return 2 }, "named twice"},
		{"outside", func(ix *Index) uint64 { return uint64(len(ix.entries)) }, "outside the tuple list"},
	} {
		fx := newFixture(t, 60, Options{}, 405)
		for _, tid := range []model.TID{2, 9} { // positions 2 and 9
			if err := fx.ix.Delete(tid); err != nil {
				t.Fatal(err)
			}
		}
		overwriteBits(t, fx.ix.segs, fx.ix.delChain, int64(fx.ix.ltid), tc.pos(fx.ix), fx.ix.ltid)
		rep, err := fx.ix.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.Join(rep.Problems, "\n"), tc.want) {
			t.Errorf("%s: problems %v, want one saying %q", tc.name, rep.Problems, tc.want)
		}
	}
}

func TestAttrsReport(t *testing.T) {
	fx := newFixture(t, 120, Options{}, 404)
	reports := fx.ix.Attrs()
	if len(reports) != fx.tbl.Catalog().NumAttrs() {
		t.Fatalf("%d reports for %d attrs", len(reports), fx.tbl.Catalog().NumAttrs())
	}
	for _, r := range reports {
		if r.Name == "" {
			t.Fatalf("attr %d missing name", r.ID)
		}
		if r.Alpha != 0.20 {
			t.Fatalf("attr %s alpha %v", r.Name, r.Alpha)
		}
		if r.DF > 0 && r.BitLen == 0 && r.ListType.String() == "I" {
			t.Fatalf("attr %s has df %d but an empty Type I list", r.Name, r.DF)
		}
	}
}

// overwriteBits stores the low width bits of v at bit offset off of chain c,
// MSB-first, with one byte write: the damage a torn or stray write leaves.
func overwriteBits(t *testing.T, segs *storage.SegStore, c storage.ChainID, off int64, v uint64, width int) {
	t.Helper()
	buf := make([]byte, (off+int64(width)+7)/8-off/8)
	if err := segs.ReadAt(c, buf, off/8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < width; i++ {
		bit := off + int64(i)
		mask := byte(0x80) >> (bit & 7)
		buf[bit/8-off/8] &^= mask
		if v>>(width-1-i)&1 != 0 {
			buf[bit/8-off/8] |= mask
		}
	}
	if err := segs.WriteAt(c, buf, off/8); err != nil {
		t.Fatal(err)
	}
}
