package iva

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func fillStore(t *testing.T, s *Store, n int) *Query {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Insert(map[string]Value{
			"Type":  Strings("Digital Camera"),
			"Price": Num(float64(100 + i%83)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return NewQuery(5).WhereNum("Price", 140).WhereText("Type", "Camera")
}

// TestQueryTimeout covers the one way to bound a search, SearchContext under a
// deadline: an expired one turns into context.DeadlineExceeded and leaves no
// page pinned.
func TestQueryTimeout(t *testing.T) {
	s, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := fillStore(t, s, 200)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, _, err := s.SearchContext(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if n := s.pool.PinnedFrames(); n != 0 {
		t.Fatalf("timed-out query leaked %d pins", n)
	}
}

// TestScrubFreshClean asserts a freshly written store scrubs clean — the
// ivatool `scrub` happy path.
func TestScrubFreshClean(t *testing.T) {
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 120)
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %+v", rep.Problems)
	}
	if rep.IndexSegments == 0 || rep.TableRecords == 0 {
		t.Fatalf("scrub covered nothing: %+v", rep)
	}
}

// TestCorruptionEndToEnd is the full public-API corruption story on a disk
// store: flip one committed index bit, then confirm the degraded read returns
// the exact baseline answer while reporting the damage (QueryStats,
// Prometheus counter, Scrub), and Rebuild from the clean table restores a
// clean store.
func TestCorruptionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := fillStore(t, s, 240)
	want, _, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	exts := s.ix.VectorExtents()
	if len(exts) == 0 {
		t.Fatal("store has no committed vector extents")
	}
	off := exts[0].Offset + exts[0].Len/2
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	idxPath := filepath.Join(dir, "iva.idx")
	blob, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[off] ^= 0x08
	if err := os.WriteFile(idxPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Exact answer, damage visible everywhere.
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, qs, err := s.Search(q)
	if err != nil {
		t.Fatalf("degraded search failed: %v", err)
	}
	if qs.DegradedSegments < 1 {
		t.Fatalf("degraded search reported %d degraded segments", qs.DegradedSegments)
	}
	if len(res) != len(want) {
		t.Fatalf("degraded search returned %d results, want %d", len(res), len(want))
	}
	for i := range res {
		if res[i].TID != want[i].TID {
			t.Fatalf("degraded result %d: got tid %d, want %d", i, res[i].TID, want[i].TID)
		}
	}
	if ok, err := regexp.MatchString(`iva_corrupt_segments_total [1-9]`, s.MetricsText()); err != nil || !ok {
		t.Fatalf("iva_corrupt_segments_total not incremented (err=%v)", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.CorruptIndexSegments < 1 {
		t.Fatalf("scrub missed the damage: %+v", rep)
	}
	if rep.CorruptTable != 0 || !rep.CatalogOK {
		t.Fatalf("scrub blamed the wrong file: %+v", rep)
	}

	// Repair: the table is intact, so a rebuild restores a clean index.
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep, err = s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("rebuild left problems: %+v", rep.Problems)
	}
	res, qs, err = s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.DegradedSegments != 0 {
		t.Fatalf("post-rebuild search still degraded: %d", qs.DegradedSegments)
	}
	for i := range res {
		if res[i].TID != want[i].TID {
			t.Fatalf("post-rebuild result %d: got tid %d, want %d", i, res[i].TID, want[i].TID)
		}
	}
}
