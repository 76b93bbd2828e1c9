package iva

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
)

func TestQuickstartFlow(t *testing.T) {
	st, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	camera, err := st.Insert(Row{
		"Type":    Strings("Digital Camera"),
		"Company": Strings("Canon"),
		"Price":   Num(230),
		"Pixel":   Num(10_000_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(Row{
		"Type":     Strings("Job Position"),
		"Industry": Strings("Computer", "Software"),
		"Company":  Strings("Google"),
		"Salary":   Num(1000),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(Row{
		"Type":   Strings("Music Album"),
		"Artist": Strings("Michael Jackson"),
		"Year":   Num(1996),
		"Price":  Num(20),
	}); err != nil {
		t.Fatal(err)
	}

	// The paper's Fig. 2 query, typo included.
	res, stats, err := st.Search(NewQuery(2).
		WhereText("Type", "Digital Camera").
		WhereText("Company", "Cannon").
		WhereNum("Price", 225))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].TID != camera {
		t.Fatalf("top result %d, want the camera %d", res[0].TID, camera)
	}
	if stats.Scanned != 3 {
		t.Fatalf("scanned %d", stats.Scanned)
	}

	row, err := st.Get(camera)
	if err != nil {
		t.Fatal(err)
	}
	if row["Company"].Texts()[0] != "Canon" {
		t.Fatalf("company = %v", row["Company"])
	}
}

func TestKindConflict(t *testing.T) {
	st, _ := Create("", Options{})
	defer st.Close()
	if _, err := st.Insert(Row{"Price": Num(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(Row{"Price": Strings("cheap")}); err == nil {
		t.Fatal("kind conflict accepted")
	}
}

func TestEmptyAndInvalidRows(t *testing.T) {
	st, _ := Create("", Options{})
	defer st.Close()
	if _, err := st.Insert(Row{}); err == nil {
		t.Fatal("empty row accepted")
	}
	if _, err := st.Insert(Row{"A": Strings()}); err == nil {
		t.Fatal("empty string set accepted")
	}
}

func TestDeleteUpdateAndCleaning(t *testing.T) {
	st, _ := Create("", Options{CleanThreshold: 0.2})
	defer st.Close()
	var tids []TID
	for i := 0; i < 50; i++ {
		tid, err := st.Insert(Row{
			"name": Strings(fmt.Sprintf("item number %02d", i)),
			"rank": Num(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	// Delete 15 tuples; at β=0.2 a rebuild must fire along the way.
	for i := 0; i < 15; i++ {
		if err := st.Delete(tids[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Rebuilds == 0 {
		t.Fatal("cleaning policy never rebuilt")
	}
	if stats.Tuples != 35 {
		t.Fatalf("live = %d, want 35", stats.Tuples)
	}
	// Deleted tuples are gone; survivors remain queryable.
	if _, err := st.Get(tids[0]); err != ErrNotFound {
		t.Fatalf("deleted tuple Get: %v", err)
	}
	res, _, err := st.Search(NewQuery(1).WhereText("name", "item number 30"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("survivor not found exactly: %v", res)
	}

	// Update returns a fresh id.
	newTID, err := st.Update(tids[20], Row{"name": Strings("replacement")})
	if err != nil {
		t.Fatal(err)
	}
	if newTID == tids[20] {
		t.Fatal("update kept the old tid")
	}
	if err := st.Delete(tids[20]); err != ErrNotFound {
		t.Fatalf("old tid after update: %v", err)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Insert(Row{"city": Strings("singapore"), "pop": Num(5_600_000)})
	if err != nil {
		t.Fatal(err)
	}
	st.Insert(Row{"city": Strings("harbin"), "pop": Num(9_500_000)})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res, _, err := st2.Search(NewQuery(1).WhereText("city", "singapore"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TID != want || res[0].Dist != 0 {
		t.Fatalf("reopened search: %v", res)
	}
	// Store keeps accepting writes after reopen.
	if _, err := st2.Insert(Row{"city": Strings("beijing")}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTwiceFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("second Create on same dir accepted")
	}
}

func TestMetricOptions(t *testing.T) {
	for _, m := range []string{"L1", "L2", "Linf"} {
		for _, w := range []string{"EQU", "ITF"} {
			st, err := Create("", Options{Metric: m, Weights: w})
			if err != nil {
				t.Fatalf("%s+%s: %v", w, m, err)
			}
			st.Insert(Row{"a": Strings("hello world"), "b": Num(5)})
			st.Insert(Row{"a": Strings("goodbye moon")})
			res, _, err := st.Search(NewQuery(2).WhereText("a", "hello world").WhereNum("b", 5))
			if err != nil {
				t.Fatalf("%s+%s: %v", w, m, err)
			}
			if len(res) != 2 || res[0].Dist != 0 {
				t.Fatalf("%s+%s: %v", w, m, res)
			}
			st.Close()
		}
	}
	if _, err := Create("", Options{Metric: "L9"}); err == nil {
		t.Fatal("bad metric accepted")
	}
	if _, err := Create("", Options{Weights: "IDF"}); err == nil {
		t.Fatal("bad weights accepted")
	}
}

func TestUnknownQueryAttribute(t *testing.T) {
	st, _ := Create("", Options{})
	defer st.Close()
	st.Insert(Row{"a": Strings("x")})
	res, _, err := st.Search(NewQuery(1).WhereText("never-seen", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
}

// TestUnknownAttrQueriesWriteNothing: a query is a read. Searches and an
// Explain naming attributes the store has never seen leave the attribute
// count, the encoded catalog and the size of the next rebuild's index where
// they were — each used to register its names, at one 4 KiB chain per catalog
// entry in the next build — and answer as brute force does, the unknown term
// charged the ndf penalty on every tuple.
func TestUnknownAttrQueriesWriteNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 100)
	if err := st.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	before, cat := st.Stats(), st.cat.Encode()

	for i := 0; i < 500; i++ {
		q := NewQuery(3).WhereNum("Price", float64(100+i%80)).WhereText(fmt.Sprintf("ghost-%d", i), "x")
		if i%2 == 1 {
			q = q.WhereNum(fmt.Sprintf("phantom-%d", i), 7)
		}
		if i%50 != 0 {
			if _, _, err := st.Search(q); err != nil {
				t.Fatal(err)
			}
			continue
		}
		assertBruteForce(t, st, q, fmt.Sprintf("query %d", i))
	}
	res, _, err := st.Search(NewQuery(1).WhereNum("Price", 140).WhereText("never-seen", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if want := metric.DefaultNDFPenalty; len(res) != 1 || res[0].Dist != want {
		t.Fatalf("an exact match but for an unknown term: %v, want distance %v", res, want)
	}
	ex, err := st.Explain(NewQuery(3).WhereNum("Price", 140).WhereText("never-seen", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if te := ex.Terms[1]; te.Attr != "never-seen" || te.Defined != 0 || te.NDF != before.Tuples {
		t.Fatalf("explain of an unknown term: %+v, want it undefined in all %d tuples", te, before.Tuples)
	}
	// The same unknown name twice is still the same attribute twice.
	if _, _, err := st.Search(NewQuery(1).WhereText("ghost", "a").WhereText("ghost", "b")); err == nil {
		t.Fatal("duplicate term on an unknown attribute accepted")
	}

	if err := st.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Attributes != before.Attributes || after.IndexBytes != before.IndexBytes || !bytes.Equal(st.cat.Encode(), cat) {
		t.Fatalf("queries on unknown attributes changed the store: %d attributes, %d index bytes; were %d, %d",
			after.Attributes, after.IndexBytes, before.Attributes, before.IndexBytes)
	}
	if blob, err := os.ReadFile(filepath.Join(dir, catalogFileName)); err != nil || !bytes.Equal(blob, cat) {
		t.Fatalf("catalog file changed (%v)", err)
	}
}

func TestWeightedTerms(t *testing.T) {
	st, _ := Create("", Options{})
	defer st.Close()
	a, _ := st.Insert(Row{"x": Strings("aaaa"), "y": Strings("zzzz")})
	b, _ := st.Insert(Row{"x": Strings("zzzz"), "y": Strings("aaaa")})
	// Weight x heavily: the tuple matching x must win.
	res, _, err := st.Search(NewQuery(2).
		WhereTextWeighted("x", "aaaa", 10).
		WhereTextWeighted("y", "aaaa", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].TID != a {
		t.Fatalf("weighted winner %d, want %d (b=%d)", res[0].TID, a, b)
	}
	if _, _, err := st.Search(NewQuery(1).WhereTextWeighted("x", "a", -1)); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestLargeStoreRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("large randomized store")
	}
	st, _ := Create("", Options{CleanThreshold: -1})
	defer st.Close()
	rng := rand.New(rand.NewSource(77))
	textAttrs := []string{"type", "brand", "color"}
	live := map[TID]Row{}
	for i := 0; i < 800; i++ {
		row := Row{}
		row[textAttrs[rng.Intn(len(textAttrs))]] = Strings(fmt.Sprintf("value %d", rng.Intn(40)))
		if rng.Intn(2) == 0 {
			row["price"] = Num(float64(rng.Intn(1000)))
		}
		tid, err := st.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		live[tid] = row
		if rng.Intn(5) == 0 {
			for victim := range live {
				if err := st.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
				break
			}
		}
	}
	if int(st.Stats().Tuples) != len(live) {
		t.Fatalf("live count %d, want %d", st.Stats().Tuples, len(live))
	}
	// Every live tuple must be findable at distance 0 by its own values.
	checked := 0
	for tid, row := range live {
		if checked >= 40 {
			break
		}
		checked++
		q := NewQuery(20)
		for name, v := range row {
			if v.Kind() == Numeric {
				q.WhereNum(name, v.Float())
			} else {
				q.WhereText(name, v.Texts()[0])
			}
		}
		res, _, err := st.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res {
			if r.TID == tid && r.Dist == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("tuple %d not found by its own values; results %v", tid, res)
		}
	}
}
