package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva"
)

// TestStatsScrubReport covers the stats command's scrub-report surface:
// without a report it stays informational (but -strict demands one), after a
// scrub it reports age and damage counts, -strict turns recorded damage into
// a non-zero exit, and a report in the pre-flattening shape reads as "never
// swept".
func TestStatsScrubReport(t *testing.T) {
	dir := t.TempDir()
	opts := iva.Options{}
	if err := run("create", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("insert", []string{"Type=Camera", "Price=230"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}

	// Never scrubbed: plain stats pass, -strict refuses.
	if err := run("stats", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatalf("stats without a report: %v", err)
	}
	if err := run("stats", []string{"-strict"}, dir, 10, serveOpts{}, opts); err == nil {
		t.Fatal("stats -strict passed without any scrub report")
	}

	// A clean scrub persists a report both modes accept.
	if err := run("scrub", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("stats", []string{"-strict"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatalf("stats -strict after a clean scrub: %v", err)
	}

	// Recorded damage (same snapshot format the scrubber and `ivatool
	// scrub` persist) must fail -strict but not plain stats.
	rep := &iva.ScrubReport{}
	rep.CorruptIndexSegments = 2
	snap := iva.ScrubSnapshot{Time: time.Now(), Health: "damaged", LastSweep: time.Now(), Report: rep}
	if err := iva.SaveScrubReport(filepath.Join(dir, "scrub-report.json"), snap); err != nil {
		t.Fatal(err)
	}
	if err := run("stats", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatalf("plain stats on a damaged report: %v", err)
	}
	err := run("stats", []string{"-strict"}, dir, 10, serveOpts{}, opts)
	if err == nil {
		t.Fatal("stats -strict passed on a damaged scrub report")
	}
	if !strings.Contains(err.Error(), "damage") {
		t.Fatalf("strict failure does not name the damage: %v", err)
	}

	// A report written before the snapshot was flattened carries a "shards"
	// array the loader no longer knows: no completed sweep, not an error.
	old := `{"time":"2026-01-02T03:04:05Z","health":"ok","shards":[{"shard":0,"last_sweep":"2026-01-02T03:04:05Z","report":{"SuperblockOK":true,"CatalogOK":true}}]}`
	if err := os.WriteFile(filepath.Join(dir, "scrub-report.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("stats", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatalf("plain stats on an old-shape report: %v", err)
	}
	if err := run("stats", []string{"-strict"}, dir, 10, serveOpts{}, opts); err == nil {
		t.Fatal("stats -strict passed on an old-shape report that records no sweep")
	}
}

// TestQueryProfileCommand smoke-tests `ivatool query -profile` end to end.
func TestQueryProfileCommand(t *testing.T) {
	dir := t.TempDir()
	opts := iva.Options{}
	if err := run("create", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := run("insert", []string{"Type=Camera", "Price=230"}, dir, 10, serveOpts{}, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := run("query", []string{"-profile", "Type=Camera", "Price=200"}, dir, 5, serveOpts{}, opts); err != nil {
		t.Fatalf("query -profile: %v", err)
	}
}
