package iva

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// healthz probes a scrubber's /healthz handler and returns the HTTP status
// code plus the decoded "status" and "reason" fields.
func healthz(t *testing.T, sc *Scrubber) (code int, status, reason string) {
	t.Helper()
	rec := httptest.NewRecorder()
	sc.ServeHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, body.Status, body.Reason
}

// manualSweeps keeps the background loop out of the way so SweepNow drives
// every assertion deterministically.
var manualSweeps = ScrubberOptions{Interval: time.Hour}

// scrubTestStore creates an on-disk store of n camera rows, synced.
func scrubTestStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	return s
}

// TestScrubberSeededCorruption is the telemetry plane's end-to-end story:
// corrupt the store's committed index on disk, watch queries observe
// DegradedSegments, walk /healthz through ok → degraded → damaged → ok across
// discovery and repair, check the iva_scrub_* metrics recorded the sweeps,
// verify queries racing a sweep stay bit-identical to the pre-corruption
// baseline, and round-trip the persisted snapshot.
func TestScrubberSeededCorruption(t *testing.T) {
	dir := t.TempDir()
	s := scrubTestStore(t, dir, 240)
	q := NewQuery(5).WhereNum("Price", 140).WhereText("Type", "Camera")
	want, _, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy phase: after a sweep the verdict is ok.
	sc := s.StartScrubber(manualSweeps)
	sc.SweepNow()
	if code, status, _ := healthz(t, sc); code != 200 || status != "ok" {
		t.Fatalf("healthy store: healthz %d %q, want 200 ok", code, status)
	}
	if sc.Units() == 0 {
		t.Fatal("sweep verified zero units")
	}
	sc.Stop()

	// Flip one committed bit in the index while the store is closed.
	exts := s.ix.VectorExtents()
	if len(exts) == 0 {
		t.Fatal("store has no committed vector extents")
	}
	off := exts[0].Offset + exts[0].Len/2
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, indexFileName)
	blob, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[off] ^= 0x08
	if err := os.WriteFile(idxPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc = s.StartScrubber(manualSweeps)
	defer sc.Stop()

	// Queries still answer exactly but observe the degraded segment.
	res, qs, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.DegradedSegments < 1 {
		t.Fatalf("degraded search reported %d degraded segments", qs.DegradedSegments)
	}
	checkResults(t, "degraded", res, want)

	// Query-reported degradation downgrades health before any sweep runs,
	// and the sweep then confirms the damage.
	if code, status, _ := healthz(t, sc); code != 200 || status != "degraded" {
		t.Fatalf("pre-sweep healthz %d %q, want 200 degraded", code, status)
	}
	sc.SweepNow()
	if code, status, _ := healthz(t, sc); code != 503 || status != "damaged" {
		t.Fatalf("post-sweep healthz %d %q, want 503 damaged", code, status)
	}

	// Queries racing a sweep stay bit-identical to the baseline.
	var wg sync.WaitGroup
	qerrs := make(chan error, 4) // one slot per querying goroutine
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				res, _, err := s.Search(q)
				if err != nil {
					qerrs <- err
					return
				}
				for i := range res {
					if res[i].TID != want[i].TID || res[i].Dist != want[i].Dist {
						qerrs <- fmt.Errorf("concurrent result %d diverged", i)
						return
					}
				}
			}
		}()
	}
	sc.SweepNow()
	wg.Wait()
	close(qerrs)
	for err := range qerrs {
		t.Fatal(err)
	}

	// Repair from the clean table; the next sweep restores ok.
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	sc.SweepNow()
	if code, status, _ := healthz(t, sc); code != 200 || status != "ok" {
		t.Fatalf("post-repair healthz %d %q, want 200 ok", code, status)
	}
	res, qs, err = s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.DegradedSegments != 0 {
		t.Fatalf("post-repair search still degraded: %d", qs.DegradedSegments)
	}
	checkResults(t, "post-repair", res, want)

	// The sweeps left their trail in the registry...
	text := s.MetricsText()
	for _, pat := range []string{
		`iva_scrub_sweeps_total 3`,
		`iva_scrub_units_total [1-9]`,
		`iva_scrub_corrupt_found_total [1-9]`,
		`iva_scrub_errors_total 0`,
		`iva_scrub_last_sweep_age_seconds \d`,
		`iva_health_state 0`,
	} {
		if ok, err := regexp.MatchString(pat, text); err != nil || !ok {
			t.Errorf("metrics missing %q (err=%v)", pat, err)
		}
	}
	// ...and the persisted snapshot is the scrubber's own, round-tripped.
	snap, err := LoadScrubReport(filepath.Join(dir, scrubReportFileName))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Health != "ok" || snap.Report == nil || !snap.Report.Clean() || snap.Err != "" {
		t.Fatalf("persisted snapshot %+v, want a clean ok sweep", snap)
	}
	live := sc.Snapshot()
	if !snap.LastSweep.Equal(live.LastSweep) || snap.Report.TableRecords != live.Report.TableRecords ||
		snap.Report.IndexSegments != live.Report.IndexSegments {
		t.Fatalf("persisted snapshot %+v diverges from the live one %+v", snap, live)
	}
	if got := len(sc.History()); got != 3 {
		t.Fatalf("scrubber recorded %d sweeps, want 3", got)
	}
}

func checkResults(t *testing.T, phase string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", phase, len(got), len(want))
	}
	for i := range got {
		if got[i].TID != want[i].TID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s result %d: got (%d, %g), want (%d, %g)",
				phase, i, got[i].TID, got[i].Dist, want[i].TID, want[i].Dist)
		}
	}
}

// TestScrubberSingleStore covers throttle accounting — every table record is
// a unit, and a sweep of more than 2,048 units pauses once per 1,024 — the
// sweep history, and an idempotent Stop.
func TestScrubberSingleStore(t *testing.T) {
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rows = 2100
	batch := make([]Row, rows)
	for i := range batch {
		batch[i] = Row{"Price": Num(float64(i))}
	}
	if _, err := s.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	sc := s.StartScrubber(manualSweeps)
	sc.SweepNow()
	if sc.Units() <= 2*scrubThrottleEvery || sc.Units() < rows {
		t.Fatalf("sweep verified %d units, want > %d and >= %d (one per table record)", sc.Units(), 2*scrubThrottleEvery, rows)
	}
	if h, reason := sc.Health(); h != HealthOK {
		t.Fatalf("clean store health %v (%s), want ok", h, reason)
	}
	if got, want := metricValue(t, s.MetricsText(), "iva_scrub_throttle_sleeps_total"), float64(sc.Units()/scrubThrottleEvery); got != want {
		t.Errorf("%g throttle sleeps for %d units at one per %d, want %g", got, sc.Units(), scrubThrottleEvery, want)
	}
	hist := sc.History()
	if len(hist) != 1 || hist[0].Report == nil || !hist[0].Report.Clean() || hist[0].Err != "" {
		t.Fatalf("history after one clean sweep: %+v", hist)
	}
	sc.Stop()
	sc.Stop() // idempotent
}

// TestScrubberBackgroundLoop lets the timer loop sweep for real while
// SweepNow calls cut in: sweeps serialize, every one of them is counted and
// recorded once, and Stop returns only after the loop has exited.
func TestScrubberBackgroundLoop(t *testing.T) {
	s := scrubTestStore(t, t.TempDir(), 120)
	defer s.Close()
	sc := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond})
	const manual = 5
	for i := 0; i < manual; i++ {
		sc.SweepNow()
	}
	for deadline := time.Now().Add(10 * time.Second); len(sc.History()) <= manual; {
		if time.Now().After(deadline) {
			t.Fatalf("background loop never swept: %d sweeps recorded after %d manual ones", len(sc.History()), manual)
		}
		time.Sleep(time.Millisecond)
	}
	sc.Stop()
	hist := sc.History()
	if got := metricValue(t, s.MetricsText(), "iva_scrub_sweeps_total"); got != float64(len(hist)) {
		t.Fatalf("iva_scrub_sweeps_total = %g with %d sweeps recorded", got, len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Start.Before(hist[i-1].End) {
			t.Fatalf("sweep %d started at %v, before sweep %d ended at %v", i, hist[i].Start, i-1, hist[i-1].End)
		}
	}
	if h, reason := sc.Health(); h != HealthOK {
		t.Fatalf("health %v (%s), want ok", h, reason)
	}
}

// TestScrubberReportUnwritable blocks <dir>/scrub-report.json with a
// directory: the sweep itself succeeds, but a report that cannot be persisted
// must not pass silently — `ivatool stats -strict` would keep reading the
// previous verdict.
func TestScrubberReportUnwritable(t *testing.T) {
	dir := t.TempDir()
	s := scrubTestStore(t, dir, 60)
	defer s.Close()
	blocker := filepath.Join(dir, scrubReportFileName)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	sc := s.StartScrubber(manualSweeps)
	defer sc.Stop()
	sc.SweepNow()

	hist := sc.History()
	if len(hist) != 1 || !strings.Contains(hist[0].Err, "persist report") {
		t.Fatalf("sweep record does not carry the persist failure: %+v", hist)
	}
	if hist[0].Report == nil || !hist[0].Report.Clean() {
		t.Fatalf("the sweep itself should have come back clean: %+v", hist[0])
	}
	if got := metricValue(t, s.MetricsText(), "iva_scrub_errors_total"); got != 1 {
		t.Fatalf("iva_scrub_errors_total = %g, want 1", got)
	}
	code, status, reason := healthz(t, sc)
	if code != 200 || status != "degraded" || !strings.Contains(reason, "persist report") {
		t.Fatalf("healthz %d %q (%q), want 200 degraded naming the persist failure", code, status, reason)
	}
}

// TestLoadScrubReportOldShape feeds LoadScrubReport a file in the shape
// written before the snapshot was flattened (a "shards" array): it must read
// as a report without a completed sweep, not fail.
func TestLoadScrubReportOldShape(t *testing.T) {
	const old = `{
  "time": "2026-01-02T03:04:05Z",
  "health": "ok",
  "shards": [
    {"shard": 0, "last_sweep": "2026-01-02T03:04:05Z",
     "report": {"IndexSegments": 12, "SuperblockOK": true, "CatalogOK": true}}
  ]
}
`
	path := filepath.Join(t.TempDir(), scrubReportFileName)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadScrubReport(path)
	if err != nil {
		t.Fatalf("old-shape report: %v", err)
	}
	if snap.Report != nil || !snap.LastSweep.IsZero() || snap.Err != "" {
		t.Fatalf("old-shape report loaded as swept: %+v", snap)
	}
}

// TestScrubberSoak runs the background loop for real — tight interval,
// concurrent writers and readers — and is meant for `go test -race` in the
// nightly job. Gated by IVA_SCRUB_SOAK (a duration, e.g. "60s").
func TestScrubberSoak(t *testing.T) {
	env := os.Getenv("IVA_SCRUB_SOAK")
	if env == "" {
		t.Skip("set IVA_SCRUB_SOAK=<duration> to run the scrubber soak")
	}
	dur, err := time.ParseDuration(env)
	if err != nil {
		dur = 2 * time.Second
	}
	s := scrubTestStore(t, t.TempDir(), 120)
	defer s.Close()
	sc := s.StartScrubber(ScrubberOptions{Interval: 10 * time.Millisecond})
	defer sc.Stop()

	deadline := time.Now().Add(dur)
	q := NewQuery(5).WhereNum("Price", 25)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, _, err := s.Search(q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := s.Insert(map[string]Value{"Price": Num(float64(i % 53))}); err != nil {
				errs <- err
				return
			}
			if i%50 == 0 {
				if err := s.Sync(); err != nil {
					errs <- err
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(sc.History()) == 0 {
		t.Fatal("soak completed with zero background sweeps")
	}
	if h, reason := sc.Health(); h != HealthOK {
		t.Fatalf("soak left health %v (%s)", h, reason)
	}
}
