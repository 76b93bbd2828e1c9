package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/model"
)

// ivaRow converts generated tuple i to the public insert form.
func ivaRow(g *dataset.Generator, i int) iva.Row {
	vals := g.Values(i)
	row := make(iva.Row, len(vals))
	for r, v := range vals {
		if v.Kind == model.KindNumeric {
			row[g.AttrName(r)] = iva.Num(v.Num)
		} else {
			row[g.AttrName(r)] = iva.Strings(v.Strs...)
		}
	}
	return row
}

// requestFromSpec renders a generated query as the wire request.
func requestFromSpec(spec dataset.NamedQuery) *SearchRequest {
	req := &SearchRequest{K: spec.K}
	for _, t := range spec.Terms {
		st := SearchTerm{Attr: t.Name, Weight: t.Weight}
		if t.Kind == model.KindNumeric {
			n := t.Num
			st.Num = &n
		} else {
			s := t.Str
			st.Text = &s
		}
		req.Terms = append(req.Terms, st)
	}
	return req
}

// seedStore fills be with the first nrows tuples of the correctness mix's
// universe under seed and syncs. The backend must be freshly created.
func seedStore(t *testing.T, seed int64, nrows int, insert func(iva.Row) (iva.TID, error), sync func() error) []iva.TID {
	t.Helper()
	g := dataset.New(dataset.MixConfig(seed))
	tids := make([]iva.TID, 0, nrows)
	for i := 0; i < nrows; i++ {
		tid, err := insert(ivaRow(g, i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		tids = append(tids, tid)
	}
	if err := sync(); err != nil {
		t.Fatal(err)
	}
	return tids
}

// postSearch round-trips one request through the real HTTP path.
func postSearch(t *testing.T, client *http.Client, url string, req *SearchRequest, tenantName string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenantName != "" {
		hr.Header.Set(TenantHeader, tenantName)
	}
	resp, err := client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// checkEquivalence drives nq queries of the correctness mix, drawn from the
// nrows tuples seedStore inserted under seed, through the HTTP path and the
// in-process path and demands byte-identical answers: the decoded results
// must match element-wise (tid and bit-equal distance), and both rendered
// through the server's encoder must serialize to the same bytes.
func checkEquivalence(t *testing.T, be Backend, seed int64, nrows, nq int) {
	t.Helper()
	srv := New(be, nil, Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	g := dataset.New(dataset.MixConfig(seed))
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < nq; i++ {
		req := requestFromSpec(g.MixQuery(rng, nrows))
		resp, raw := postSearch(t, ts.Client(), ts.URL, req, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
		var got SearchResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("query %d: decode response: %v", i, err)
		}
		want, _, err := be.SearchContext(context.Background(), req.Query())
		if err != nil {
			t.Fatalf("query %d: in-process search: %v", i, err)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("query %d: HTTP returned %d results, in-process %d\n  http: %v\n  in-proc: %v",
				i, len(got.Results), len(want), got.Results, want)
		}
		for j := range want {
			if got.Results[j].TID != want[j].TID || got.Results[j].Dist != want[j].Dist {
				t.Fatalf("query %d result %d: HTTP (tid %d, %v), in-process (tid %d, %v)",
					i, j, got.Results[j].TID, got.Results[j].Dist, want[j].TID, want[j].Dist)
			}
		}
		// Bit-identical on the wire: both answers rendered through the same
		// encoder must produce the same bytes (float64 survives a JSON
		// round-trip exactly, so any drift is a real divergence).
		httpBytes, err := json.Marshal(got.Results)
		if err != nil {
			t.Fatal(err)
		}
		inprocBytes, err := json.Marshal(Results(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(httpBytes, inprocBytes) {
			t.Fatalf("query %d: wire bytes diverge\n  http:    %s\n  in-proc: %s", i, httpBytes, inprocBytes)
		}
	}
}

// TestServerEquivalence is the battery's core: over a seeded randomized
// workload, every HTTP answer is byte-identical to the in-process answer, at
// one worker and full parallelism. (The degraded-read configuration lives in
// the root package's TestServerEquivalenceDegraded, which needs
// fault-injection access to the index file.)
func TestServerEquivalence(t *testing.T) {
	const (
		seed  = 7331
		nrows = 500
		nq    = 80
	)
	cases := []struct {
		name string
		opts iva.Options
	}{
		{"one-worker", iva.Options{SearchParallelism: 1}},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), iva.Options{SearchParallelism: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := iva.Create(t.TempDir(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			seedStore(t, seed, nrows, s.Insert, s.Sync)
			checkEquivalence(t, s, seed, nrows, nq)
		})
	}
}

// TestGetEndpoint round-trips /v1/get against a real store: a live tuple
// comes back with its full row, a dead tid is 404, a malformed tid is 400.
func TestGetEndpoint(t *testing.T) {
	s, err := iva.Create(t.TempDir(), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tids := seedStore(t, 99, 50, s.Insert, s.Sync)

	srv := New(s, nil, Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	tid := tids[13]
	resp, raw := get(fmt.Sprintf("/v1/get?tid=%d", tid))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: HTTP %d: %s", resp.StatusCode, raw)
	}
	var gr GetResponse
	if err := json.Unmarshal(raw, &gr); err != nil {
		t.Fatal(err)
	}
	want, err := s.Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	if gr.TID != tid || len(gr.Row) != len(want) {
		t.Fatalf("get: got tid %d with %d attrs, want tid %d with %d", gr.TID, len(gr.Row), tid, len(want))
	}
	for name, v := range want {
		gv, ok := gr.Row[name]
		if !ok {
			t.Fatalf("get: attribute %q missing from response", name)
		}
		if v.Kind() == iva.Numeric {
			if gv.Num == nil || *gv.Num != v.Float() {
				t.Fatalf("get: attr %q = %v, want num %v", name, gv, v.Float())
			}
		} else if len(gv.Strs) != len(v.Texts()) {
			t.Fatalf("get: attr %q = %v, want strs %v", name, gv, v.Texts())
		}
	}

	if resp, _ = get("/v1/get?tid=999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dead tid: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ = get("/v1/get?tid=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tid: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ = get("/v1/get"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tid: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestStatsEndpoint sanity-checks /v1/stats shape over a live store.
func TestStatsEndpoint(t *testing.T) {
	s, err := iva.Create(t.TempDir(), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedStore(t, 5, 30, s.Insert, s.Sync)

	srv := New(s, nil, Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Store.Tuples != 30 {
		t.Fatalf("stats: tuples = %d, want 30", sr.Store.Tuples)
	}
	if sr.Server.Tenants < 1 || sr.Server.Draining {
		t.Fatalf("stats: unexpected server block %+v", sr.Server)
	}
}
