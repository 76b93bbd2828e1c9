package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

func TestAggregate(t *testing.T) {
	// Physical reads without an access class cost nothing in the disk
	// model, so each phase's model ms is CPUFactor × its wall time: 100µs
	// prices at 1 ms.
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	samples := []sample{
		{accesses: 10, scanned: 100, filterIO: storage.Snapshot{PhysReads: 4}, filterWall: us(100), refineWall: us(300)},
		{accesses: 20, scanned: 100, filterIO: storage.Snapshot{PhysReads: 6}, filterWall: us(300), refineWall: us(500)},
	}
	s := aggregate(samples)
	if s.Queries != 2 {
		t.Fatalf("Queries = %d", s.Queries)
	}
	if s.MeanTableAccesses != 15 || s.MeanScanned != 100 || s.MeanFilterPages != 5 {
		t.Fatalf("means: %+v", s)
	}
	if s.FilterModelMS != 2 || s.RefineModelMS != 4 || s.TotalModelMS != 6 {
		t.Fatalf("model ms: %+v", s)
	}
	// Totals are 4 and 8 → stddev = 2 (population, n=2).
	if math.Abs(s.StdDevModelMS-2) > 1e-9 {
		t.Fatalf("StdDevModelMS = %v", s.StdDevModelMS)
	}
	if got := aggregate(nil); got.Queries != 0 {
		t.Fatalf("empty aggregate: %+v", got)
	}
	// The disk model prices classed reads: two random reads and 1 ms of wall.
	if got, want := modelMS(storage.Snapshot{RandReads: 2}, time.Millisecond), 2*disk.RandomMS+CPUFactor; got != want {
		t.Fatalf("modelMS = %v, want %v", got, want)
	}
}

// TestMeasureMedianRounds: over three rounds, one round's slow filter and
// another round's slow refine move neither half of the query's sample, and
// each half keeps its own round's count. The warm query is not measured.
func TestMeasureMedianRounds(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	calls := []sample{
		{}, {accesses: 1, scanned: 10, filterWall: us(3000), refineWall: us(400)},
		{}, {accesses: 2, scanned: 20, filterWall: us(100), refineWall: us(5000)},
		{}, {accesses: 3, scanned: 30, filterWall: us(90), refineWall: us(450)},
	}
	search := func(*model.Query, *metric.Metric) (sample, error) {
		sm := calls[0]
		calls = calls[1:]
		return sm, nil
	}
	s, err := measure(search, make([]*model.Query, 2), 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries != 1 || s.MeanScanned != 20 || s.MeanTableAccesses != 3 ||
		s.FilterModelMS != 1 || s.RefineModelMS != 4.5 || len(calls) != 0 {
		t.Fatalf("measure = %+v with %d calls left, want the 100 µs filter (20 scanned) and the 450 µs refine (3 accesses)", s, len(calls))
	}
}

func TestStddev(t *testing.T) {
	if got := stddev([]float64{5}); got != 0 {
		t.Fatalf("single sample stddev = %v", got)
	}
	if got := stddev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("constant stddev = %v", got)
	}
	if got := stddev([]float64{1, 3}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("stddev = %v, want 1", got)
	}
}

func TestUpdateMSFormula(t *testing.T) {
	u := updateCosts{td: 4, ti: 6, tr: 10000, tuples: 1000}
	// 4 + 6 + 10000/(0.01*1000) = 10 + 1000 = 1010.
	if got := u.updateMS(0.01); math.Abs(got-1010) > 1e-9 {
		t.Fatalf("model updateMS = %v", got)
	}
	// Strictly decreasing in beta.
	if u.updateMS(0.01) <= u.updateMS(0.05) {
		t.Fatal("updateMS not decreasing in beta")
	}
}

func TestRenderAlignment(t *testing.T) {
	r := Result{
		Name:   "t",
		Title:  "title",
		Header: []string{"col", "x"},
		Rows:   [][]string{{"longvalue", "1"}, {"s", "22"}},
	}
	out := r.Render()
	lines := strings.Split(out, "\n")
	// Find the header line and check that columns align.
	var header, row1 string
	for i, l := range lines {
		if strings.HasPrefix(l, "col") {
			header = l
			row1 = lines[i+2]
			break
		}
	}
	if header == "" {
		t.Fatalf("header not found in:\n%s", out)
	}
	if strings.Index(header, "x") != strings.Index(row1, "1") {
		t.Fatalf("columns misaligned:\n%q\n%q", header, row1)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Tuples != 60000 || c.TextAttrs != 1081 || c.NumAttrs != 66 || c.Seed != 42 || c.Parallelism != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Tuples: 5}.withDefaults()
	if c2.Tuples != 5 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}
