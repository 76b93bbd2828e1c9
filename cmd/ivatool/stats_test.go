package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"regexp"
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

// captureStdout runs fn with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return <-out
}

// goldenStore is the fixed in-memory store the operator-output goldens read:
// 60 rows, one deleted, synced, one search served.
func goldenStore(t *testing.T) *iva.Store {
	t.Helper()
	st, err := iva.Create("", iva.Options{SearchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < 60; i++ {
		row := map[string]iva.Value{"Type": iva.Strings("Digital Camera"), "Price": iva.Num(float64(100 + i%17))}
		if i%4 == 0 {
			row["Company"] = iva.Strings("Canon", "Sony")
		}
		if _, err := st.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Search(iva.NewQuery(5).WhereNum("Price", 110).WhereText("Type", "Camera")); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsGolden pins what `ivatool stats` prints, line for line, so a line
// added or lost shows up as a diff: without a scrub report, then the lines a
// persisted one adds (ages normalised).
func TestStatsGolden(t *testing.T) {
	st := goldenStore(t)
	dir := t.TempDir()
	const golden = `tuples      59
deleted     1
attributes  3
table bytes 2179
index bytes 12311
rebuilds    0 (clean 0 growth 0 needs_rebuild 0 explicit 0)
cache hits  463 (99.1% hit rate)
phys reads  4 (seq 3 near 1 rand 0)
phys writes 284
codec       raw
scrub       never (no scrub report)
`
	got := captureStdout(t, func() {
		if err := stats(st, dir, nil); err != nil {
			t.Error(err)
		}
	})
	if got != golden {
		t.Errorf("stats output changed:\n got:\n%s\nwant:\n%s", got, golden)
	}

	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	persistScrub(dir, rep)
	got = captureStdout(t, func() {
		if err := stats(st, dir, []string{"-strict"}); err != nil {
			t.Error(err)
		}
	})
	// The sweep moved the cache counters; only the report's lines are new.
	_, got, _ = strings.Cut(got, "codec       raw\n")
	got = regexp.MustCompile(`[0-9hms]+ ago`).ReplaceAllString(got, "T ago")
	const report = `scrub       T ago, health=ok
  swept T ago, degraded segments 0, corrupt table records 0
`
	if got != report {
		t.Errorf("stats output with a scrub report changed:\n got:\n%s\nwant:\n%s", got, report)
	}
}

// TestQueryGolden pins what `ivatool query` prints on goldenStore, plain and
// with -profile: the answers, then the one-line summary or the per-phase
// profile, with durations and the trace id masked. An answer's row is cut
// after its distance: a row prints its attributes in map order. The profile's
// pool_hit_ratio is computed from the cache_hits and phys_reads it prints.
func TestQueryGolden(t *testing.T) {
	st := goldenStore(t)
	const answers = `tid=44 dist=8.000
tid=28 dist=8.062
tid=8 dist=8.246
tid=12 dist=8.246
tid=24 dist=8.544
`
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"Type=Camera", "Company=Canon", "Price=110"}, answers + `(scanned 59, table accesses 15, filter D, refine D)
`},
		{[]string{"-profile", "Type=Camera", "Company=Canon", "Price=110"}, answers + `Search k=5 Type="Camera" Company="Canon" Price=110
  time=D results=5 workers=1 trace=T
  Filter: D  scanned=59 stripes=1
  Refine: D  fetched=15
  Merge:  D
  I/O: cache_hits=6 phys_reads=0 pool_hit_ratio=100.0% disk_cost=D
  Worker 0: stripes=1 scanned=59 fetched=15 busy=D
`},
	} {
		got := captureStdout(t, func() {
			if err := query(st, 5, tc.args); err != nil {
				t.Error(err)
			}
		})
		got = regexp.MustCompile(`(?m)^(tid=\d+ dist=\S+) .*$`).ReplaceAllString(got, "$1")
		got = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`).ReplaceAllString(got, "D")
		got = regexp.MustCompile(`trace=[0-9a-f]{16}`).ReplaceAllString(got, "trace=T")
		if got != tc.golden {
			t.Errorf("query %v output changed:\n got:\n%s\nwant:\n%s", tc.args, got, tc.golden)
		}
	}
}

// TestScrubSummaryGolden pins the one-line machine-readable summary `ivatool
// scrub` prints, clean and with damage.
func TestScrubSummaryGolden(t *testing.T) {
	rep, err := goldenStore(t).Scrub()
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() { printScrub(rep) })
	const clean = "scrub: status=ok segments=12 corrupt=0 ckpt_dropped=0 table_records=60 table_corrupt=0 superblock_ok=true catalog_ok=true problems=0\n"
	if got != clean {
		t.Errorf("scrub summary changed:\n got: %swant: %s", got, clean)
	}

	rep.CorruptIndexSegments = 2
	rep.Problems = []string{"iva.idx: segment 9 checksum mismatch", "iva.idx: segment 12 checksum mismatch"}
	got = captureStdout(t, func() { printScrub(rep) })
	const damaged = "scrub: status=fail segments=12 corrupt=2 ckpt_dropped=0 table_records=60 table_corrupt=0 superblock_ok=true catalog_ok=true problems=2\n" +
		"PROBLEM: iva.idx: segment 9 checksum mismatch\nPROBLEM: iva.idx: segment 12 checksum mismatch\n"
	if got != damaged {
		t.Errorf("damaged scrub summary changed:\n got: %swant: %s", got, damaged)
	}
}

// TestOldFormatRefused: `stats` and `scrub` on a store whose index carries the
// previous format word fail with the one plain error naming both versions,
// and leave the file as it was.
func TestOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	opts := iva.Options{}
	if err := run("create", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("insert", []string{"Type=Camera", "Price=230"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "iva.idx")
	image, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(image[4:], 10)
	if err := os.WriteFile(idx, image, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"stats", "scrub"} {
		err := run(cmd, nil, dir, 10, serveOpts{}, opts)
		if err == nil || !strings.Contains(err.Error(), "version 10 ") || !strings.Contains(err.Error(), "version 11") {
			t.Fatalf("%s on a version-10 store: %v", cmd, err)
		}
		if after, err := os.ReadFile(idx); err != nil || !bytes.Equal(after, image) {
			t.Fatalf("%s changed the refused index file (%v)", cmd, err)
		}
	}
}
