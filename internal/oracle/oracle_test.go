package oracle

import (
	"flag"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// Reproduction flags: a failure prints the exact invocation that replays it.
var (
	flagSeed  = flag.Uint64("oracle.seed", 0x1fa5eed, "workload seed to replay")
	flagOps   = flag.Int("oracle.ops", 0, "schedule length (0 = build-dependent default)")
	flagCache = flag.Int64("oracle.cache", 0, "iVA buffer-pool bytes (0 = 8 MiB default)")
)

func ops(t *testing.T, def int) int {
	if *flagOps > 0 {
		return *flagOps
	}
	if testing.Short() {
		return shortOps
	}
	return def
}

// TestDifferential is the in-memory differential soak: iVA-file vs SII vs
// DST vs brute force over one seeded schedule.
func TestDifferential(t *testing.T) {
	res, err := Run(Options{Seed: *flagSeed, Ops: ops(t, defaultOps), CacheBytes: *flagCache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle: %+v", res)
	if res.Searches == 0 || res.Deletes == 0 || res.Reopens == 0 || res.Rebuilds == 0 {
		t.Fatalf("schedule did not exercise all op kinds: %+v", res)
	}
	if res.CorruptionChecks == 0 {
		t.Fatalf("run skipped the seeded corruption sweep: %+v", res)
	}
}

// TestDifferentialSmallPool replays the soak with a 4-page buffer pool: every
// filter scan and refine fetch goes through CLOCK eviction and pinned-window
// reloads, and the results must stay bit-identical to the reference engines
// across the whole parallelism grid.
func TestDifferentialSmallPool(t *testing.T) {
	n := ops(t, defaultOps) / 4
	if n < 300 {
		n = 300
	}
	res, err := Run(Options{Seed: *flagSeed + 2, Ops: n, CacheBytes: 16 << 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle (small pool): %+v", res)
	requireCoverage(t, res)
}

// TestDifferentialCodec is the codec differential: a second
// iVA-file built with the packed block codec rides the full op mix —
// inserts, deletes, updates, syncs, reopens, rebuilds — and every answer it
// gives must be byte-identical to the reference across the parallelism grid.
func TestDifferentialCodec(t *testing.T) {
	n := ops(t, defaultOps) / 4
	if n < 300 {
		n = 300
	}
	res, err := Run(Options{Seed: *flagSeed + 3, Ops: n, CacheBytes: *flagCache, CodecMirror: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle (codec): %+v", res)
	if res.CodecComparisons == 0 {
		t.Fatalf("the packed mirror was never compared: %+v", res)
	}
	if res.Rebuilds == 0 {
		t.Fatalf("schedule never rebuilt, so no list could adopt the packed codec: %+v", res)
	}
	if res.PackedLists == 0 {
		t.Fatalf("the packed mirror never held a packed list — the differential was vacuous: %+v", res)
	}
}

// TestDifferentialOnDisk repeats a shorter run against real files, covering
// the FileDevice reopen paths.
func TestDifferentialOnDisk(t *testing.T) {
	n := ops(t, defaultOps) / 8
	if n < 300 {
		n = 300
	}
	res, err := Run(Options{Seed: *flagSeed + 1, Ops: n, Dir: t.TempDir(), CacheBytes: *flagCache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle (disk): %+v", res)
	requireCoverage(t, res)
}

// requireCoverage fails a run that never reopened or skipped the seeded
// corruption sweep.
func requireCoverage(t *testing.T, res Result) {
	t.Helper()
	if res.Reopens == 0 || res.CorruptionChecks != 1 {
		t.Fatalf("run did not reopen or corrupt: %+v", res)
	}
}

// dropLast is a broken index: every answer loses its last result.
type dropLast struct{ index }

func (d dropLast) search(q *model.Query, m *metric.Metric, par int) ([]model.Result, int, int, error) {
	res, workers, degraded, err := d.index.search(q, m, par)
	if len(res) > 0 {
		res = res[:len(res)-1]
	}
	return res, workers, degraded, err
}

// TestOracleCatchesEveryEngine breaks one engine at a time, through every
// rebuild and reopen, and requires the run to fail naming that engine — the
// guard against an op that silently skips an engine.
func TestOracleCatchesEveryEngine(t *testing.T) {
	for _, name := range []string{"iva", "iva2", "sii", "dst"} {
		t.Run(name, func(t *testing.T) {
			h, err := newHarness(Options{Seed: *flagSeed, Ops: 400, CodecMirror: true})
			if err != nil {
				t.Fatal(err)
			}
			defer h.close()
			var e *engine
			for _, c := range h.engines {
				if c.name == name {
					e = c
				}
			}
			if e == nil {
				t.Fatalf("no engine %q", name)
			}
			e.ix = dropLast{e.ix}
			attach := e.attach
			e.attach = func(tbl *table.Table, f *storage.File, create bool, keep func(model.TID) bool) (index, error) {
				ix, err := attach(tbl, f, create, keep)
				return dropLast{ix}, err
			}
			_, err = h.run()
			if err == nil {
				t.Fatalf("the oracle missed a broken %s", name)
			}
			if !strings.Contains(err.Error(), "): "+name+" ") {
				t.Fatalf("failure does not name %s: %v", name, err)
			}
		})
	}
}
