package core

import "testing"

// TestSearchTrace checks the per-term counts a search reports against its
// totals, at one worker and at two: every scanned tuple is either defined on
// a term's attribute or charged its ndf penalty, and every prune is credited
// to exactly one term.
func TestSearchTrace(t *testing.T) {
	fx := newFixture(t, 400, Options{}, 7)
	q := fx.randQuery(t, 3, 10)
	for _, par := range []int{1, 2} {
		fx.ix.SetSearchParallelism(par)
		_, st, err := fx.ix.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Terms) != len(q.Terms) {
			t.Fatalf("par %d: %d term stats, want %d", par, len(st.Terms), len(q.Terms))
		}
		var pruned int64
		for i, ts := range st.Terms {
			if ts.Defined+ts.NDF != st.Scanned {
				t.Errorf("par %d, term %d: defined %d + ndf %d != scanned %d", par, i, ts.Defined, ts.NDF, st.Scanned)
			}
			pruned += ts.Pruned
		}
		if want := st.Scanned - st.TableAccesses; pruned != want {
			t.Errorf("par %d: per-term pruned sums to %d, scanned - fetched = %d", par, pruned, want)
		}
		if st.FetchWall < 0 || st.FetchWall > st.RefineWall {
			t.Errorf("par %d: fetch %v outside refine %v", par, st.FetchWall, st.RefineWall)
		}
	}
}
