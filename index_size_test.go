package iva

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/model"
)

// TestIndexSmallerThanTable is the gate on what short lists sharing pages is
// for: over internal/dataset's sparse wide table — a thousand attributes, most
// defined by almost nobody — the iVA-file, an approximation, is smaller than
// the table it approximates, at 3,000 and at 10,000 tuples (with one page per
// list it was 3.7× and 1.3× the table). It gates the table too: records that
// gap-code their attribute ids and leave kinds to the catalog keep the table
// at 10,000 tuples under 3.55 MB (4,285,595 bytes with a u32 id and a kind
// byte per field). The built store is then closed, reopened and appended to —
// allocation resumes at the next whole page, beside the slab pages the build
// filled — and must still agree with brute force and pass Check.
func TestIndexSmallerThanTable(t *testing.T) {
	sizes := []int{3000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	tableCeiling := map[int]int64{3000: 1_070_000, 10000: 3_550_000}
	for _, tuples := range sizes {
		t.Run(fmt.Sprint(tuples), func(t *testing.T) {
			gen := dataset.New(dataset.Config{Tuples: tuples + 300, Seed: 42})
			row := func(i int) Row {
				r := make(Row)
				for rank, v := range gen.Values(i) {
					r[gen.AttrName(rank)] = Value{v}
				}
				return r
			}
			rows := make([]Row, tuples)
			for i := range rows {
				rows[i] = row(i)
			}
			dir := filepath.Join(t.TempDir(), "store")
			opts := Options{CleanThreshold: -1, GrowthRebuildFactor: -1}
			st, err := Create(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
			if err := st.Rebuild(); err != nil {
				t.Fatal(err)
			}
			smaller := func(tag string) {
				t.Helper()
				if s := st.Stats(); s.IndexBytes >= s.TableBytes {
					t.Fatalf("%s: index %d bytes, table %d", tag, s.IndexBytes, s.TableBytes)
				} else {
					t.Logf("%s: %d tuples, index %d bytes = %.2f of the table's %d", tag, s.Tuples, s.IndexBytes, float64(s.IndexBytes)/float64(s.TableBytes), s.TableBytes)
				}
			}
			smaller("built")
			if s := st.Stats(); s.TableBytes > tableCeiling[tuples] {
				t.Fatalf("table of %d tuples is %d bytes, over %d", tuples, s.TableBytes, tableCeiling[tuples])
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			if st, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := tuples; i < tuples+300; i++ {
				if _, err := st.Insert(row(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			smaller("reopened and appended")
			for i := 0; i < 12; i++ { // queries near an appended row and near a built one
				q := NewQuery(10)
				for rank, v := range gen.Values(tuples + 300 - 1 - i*(tuples/12)) {
					if v.Kind == model.KindNumeric {
						q.WhereNum(gen.AttrName(rank), v.Num+1)
					} else {
						q.WhereText(gen.AttrName(rank), v.Strs[0]+"x")
					}
					if len(q.terms) == 3 {
						break
					}
				}
				assertBruteForce(t, st, q, fmt.Sprintf("query %d", i))
			}
			if rep, err := st.Check(); err != nil || !rep.Ok() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
		})
	}
}
