package bench

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/table"
)

// small test configuration: enough data for the shapes to emerge, small
// enough for CI.
func testCfg() Config {
	return Config{Tuples: 4000, TextAttrs: 120, NumAttrs: 12, Seed: 7}
}

// results caches each experiment's Result at testCfg, so each is measured
// once per package run.
var results = map[string]Result{}

// result runs the named experiment at testCfg (fig17 at 2,000 tuples: it
// builds three private environments), or returns its cached Result.
func result(t *testing.T, name string) Result {
	t.Helper()
	if r, ok := results[name]; ok {
		return r
	}
	cfg := testCfg()
	if name == "fig17" {
		cfg.Tuples = 2000
	}
	r, err := Run(name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	results[name] = r
	return r
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestEveryExperimentRuns runs the whole registry on a fresh shared
// environment and checks that none of it replaced that environment's
// iVA-file: variants are private. It comes first, so every experiment runs
// inside the check; the shape tests below read its results.
func TestEveryExperimentRuns(t *testing.T) {
	e, err := SharedEnv(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ix := e.IVA
	for _, name := range Experiments() {
		if r := result(t, name); len(r.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
	if e.IVA != ix {
		t.Error("an experiment replaced the shared environment's iVA-file")
	}
}

func TestFig8Shape(t *testing.T) {
	r := result(t, "fig8")
	t.Log("\n" + r.Render())
	if len(r.Rows) != len(sweepValues) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		iva, sii := parse(t, row[1]), parse(t, row[2])
		if iva >= sii {
			t.Fatalf("values=%s: iVA accesses %v not below SII %v", row[0], iva, sii)
		}
		// Paper: iVA at 1.5–22% of SII. Allow a wider band at small scale.
		if ratio := iva / sii; ratio > 0.5 {
			t.Errorf("values=%s: access ratio %.2f too high", row[0], ratio)
		}
	}
}

func TestDefaultsExperiment(t *testing.T) {
	r := result(t, "defaults")
	t.Log("\n" + r.Render())
	vals := map[string]string{}
	for _, row := range r.Rows {
		vals[row[0]] = row[1]
	}
	if vals["alpha"] != "20.0%" || vals["n"] != "2" {
		t.Fatalf("Table I defaults wrong: %v", vals)
	}
	mean := parse(t, vals["mean attrs/tuple"])
	if mean < 13 || mean > 20 {
		t.Errorf("mean attrs/tuple = %v, want ≈16.3", mean)
	}
	// iVA must beat both baselines at any scale. (SII < DST only emerges
	// above ~10k tuples — DST grows with |T| while SII grows with the
	// queried attributes' df — so that ordering is asserted by the
	// 60k run recorded in EXPERIMENTS.md, not at this test scale.)
	iva := parse(t, vals["iVA query (model ms)"])
	sii := parse(t, vals["SII query (model ms)"])
	dst := parse(t, vals["DST query (model ms)"])
	if iva >= sii || iva >= dst {
		t.Errorf("iVA not fastest: iVA %v, SII %v, DST %v", iva, sii, dst)
	}
}

func TestFig9Shape(t *testing.T) {
	r := result(t, "fig9")
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		ivaFilter, siiFilter := parse(t, row[1]), parse(t, row[2])
		ivaRefine, siiRefine := parse(t, row[3]), parse(t, row[4])
		// The paper's trade-off: iVA pays more filtering (it scans content,
		// not just tids) and gains much lower refining.
		if ivaFilter <= siiFilter {
			t.Errorf("values=%s: iVA filter %v not above SII %v", row[0], ivaFilter, siiFilter)
		}
		if ivaRefine >= siiRefine {
			t.Errorf("values=%s: iVA refine %v not below SII %v", row[0], ivaRefine, siiRefine)
		}
	}
}

func TestSizesShape(t *testing.T) {
	r := result(t, "sizes")
	t.Log("\n" + r.Render())
	table := parse(t, r.Rows[0][1])
	sii := parse(t, r.Rows[1][1])
	if sii <= 0 || sii >= table {
		t.Errorf("SII size %v not in (0, table %v)", sii, table)
	}
	// iVA size must grow with alpha (non-decreasing per step — the printed
	// megabytes are rounded — and strictly from the smallest alpha to the
	// largest).
	prev := 0.0
	for _, row := range r.Rows[2:] {
		mb := parse(t, row[1])
		if mb < prev {
			t.Errorf("iVA size shrank with alpha: %v after %v", mb, prev)
		}
		prev = mb
	}
	if first, last := parse(t, r.Rows[2][1]), prev; last <= first {
		t.Errorf("iVA size flat across the whole alpha sweep: %v .. %v", first, last)
	}
}

func TestFig10Shape(t *testing.T) {
	r := result(t, "fig10")
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		iva, sii := parse(t, row[1]), parse(t, row[2])
		if iva >= sii {
			t.Errorf("values=%s: iVA %v not faster than SII %v (model ms)", row[0], iva, sii)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	r := result(t, "fig12")
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		if parse(t, row[1]) >= parse(t, row[2]) {
			t.Errorf("k=%s: iVA not below SII", row[0])
		}
	}
}

func TestFig13Shape(t *testing.T) {
	r := result(t, "fig13")
	t.Log("\n" + r.Render())
	if len(r.Rows) != 6 {
		t.Fatalf("%d settings", len(r.Rows))
	}
	for _, row := range r.Rows {
		if parse(t, row[1]) >= parse(t, row[2]) {
			t.Errorf("%s: iVA not faster than SII", row[0])
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := result(t, "fig15")
	t.Log("\n" + r.Render())
	// The paper's trade-off in machine-independent terms: longer vectors
	// mean more index pages scanned (filter work grows) and fewer table
	// accesses (refine work shrinks). The count columns are deterministic,
	// unlike the modeled ms which include measured CPU time.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if parse(t, last[3]) <= parse(t, first[3]) {
		t.Errorf("filter pages did not grow with alpha: %s -> %s", first[3], last[3])
	}
	if parse(t, last[4]) >= parse(t, first[4]) {
		t.Errorf("table accesses did not shrink with alpha: %s -> %s", first[4], last[4])
	}
}

func TestFig17Shape(t *testing.T) {
	r := result(t, "fig17")
	t.Log("\n" + r.Render())
	// Update time decreases as beta grows, for every engine.
	betaRows := r.Rows[:5]
	for col := 1; col <= 3; col++ {
		if parse(t, betaRows[0][col]) <= parse(t, betaRows[4][col]) {
			t.Errorf("col %d: update time did not fall from beta=1%% to 5%%", col)
		}
	}
}

func TestAblateDomainsShape(t *testing.T) {
	r := result(t, "ablate-domains")
	t.Log("\n" + r.Render())
	rel, abs := parse(t, r.Rows[0][1]), parse(t, r.Rows[1][1])
	if rel >= abs {
		t.Errorf("relative domain accesses %v not below absolute %v", rel, abs)
	}
}

func TestAblatePlanShape(t *testing.T) {
	r := result(t, "ablate-plan")
	t.Log("\n" + r.Render())
	// Mixed queries: the sequential plan keeps most of the table as
	// candidates; the parallel plan fetches far fewer.
	mixedSeq, mixedPar := parse(t, r.Rows[0][2]), parse(t, r.Rows[0][3])
	scanned := parse(t, r.Rows[0][1])
	if mixedSeq < 0.5*scanned {
		t.Errorf("sequential candidates %v < half of scanned %v on text queries", mixedSeq, scanned)
	}
	if mixedPar >= mixedSeq {
		t.Errorf("parallel fetches %v not below sequential candidates %v", mixedPar, mixedSeq)
	}
	// Numeric-only queries: the sequential plan prunes meaningfully.
	numSeq := parse(t, r.Rows[1][2])
	if numSeq >= parse(t, r.Rows[1][1]) {
		t.Errorf("numeric-only sequential plan did not prune at all")
	}
}

// TestAblateSignatureShape: under every pair sampler the signature's
// measured error falls with α, the histogram's mean bound is above the
// signature's at every width, and no bound exceeds its pair's edit distance.
func TestAblateSignatureShape(t *testing.T) {
	r := result(t, "ablate-signature")
	t.Log("\n" + r.Render())
	if len(r.Rows) != 3*len(alphaSweep) {
		t.Fatalf("%d rows, want 3 samplers × %d α", len(r.Rows), len(alphaSweep))
	}
	for i := 0; i < len(r.Rows); i += len(alphaSweep) {
		first, last := r.Rows[i], r.Rows[i+len(alphaSweep)-1]
		if parse(t, first[3]) < parse(t, last[3]) {
			t.Errorf("%s: measured error grew with alpha", first[0])
		}
	}
	for _, row := range r.Rows {
		if sig, hist := parse(t, row[5]), parse(t, row[6]); hist <= sig {
			t.Errorf("%s α=%s: histogram mean %v not above signature mean %v", row[0], row[1], hist, sig)
		}
		if row[7] != "0" {
			t.Errorf("%s α=%s: %s pairs bounded above their edit distance", row[0], row[1], row[7])
		}
	}
}

// TestFig10IsFig9Sum: Figs. 9 and 10 read one measured sweep, so each
// engine's overall time is its filter plus refine time up to print
// rounding.
func TestFig10IsFig9Sum(t *testing.T) {
	f9, f10 := result(t, "fig9"), result(t, "fig10")
	for i, row := range f9.Rows {
		for eng, col := range map[string]int{"iVA": 1, "SII": 2} {
			sum := parse(t, row[col]) + parse(t, row[col+2])
			if total := parse(t, f10.Rows[i][col]); math.Abs(total-sum) > 0.1+1e-9 {
				t.Errorf("values=%s %s: fig10 %v, fig9 %s + %s", row[0], eng, total, row[col], row[col+2])
			}
		}
	}
}

// TestUpdateRebuildKeepsLiveSet: each engine's cleaning rebuild keeps the
// tuples it inserted and none it deleted.
func TestUpdateRebuildKeepsLiveSet(t *testing.T) {
	cfg := testCfg()
	cfg.Tuples = 2000
	for i, on := range updaters {
		e, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := on(e)
		inserted, deleted := map[model.TID]bool{}, map[model.TID]bool{}
		insert, del, build := u.insert, u.delete, u.build
		u.insert = func(v map[model.AttrID]model.Value) (model.TID, error) {
			tid, err := insert(v)
			inserted[tid] = true
			return tid, err
		}
		u.delete = func(tid model.TID) error { deleted[tid] = true; return del(tid) }
		var rebuilt *table.Table
		u.build = func(tbl *table.Table) error { rebuilt = tbl; return build(tbl) }
		if _, err := measureUpdates(e, u, 50); err != nil {
			t.Fatal(err)
		}
		kept := map[model.TID]bool{}
		if err := rebuilt.Scan(func(_ int64, tp *model.Tuple) error { kept[tp.TID] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		if len(kept) != cfg.Tuples || len(inserted) != 50 || len(deleted) != 50 {
			t.Errorf("updater %d: kept %d tuples after %d inserts and %d deletes, want %d",
				i, len(kept), len(inserted), len(deleted), cfg.Tuples)
		}
		for tid := range inserted {
			if !kept[tid] {
				t.Errorf("updater %d: inserted tid %d dropped", i, tid)
			}
		}
		for tid := range deleted {
			if kept[tid] {
				t.Errorf("updater %d: deleted tid %d kept", i, tid)
			}
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", testCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRenderAndMarkdown(t *testing.T) {
	r := Result{
		Name:   "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	if !strings.Contains(r.Render(), "== x ==") {
		t.Error("Render missing header")
	}
	md := r.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "> n") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}
