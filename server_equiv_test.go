// The degraded-read leg of the server equivalence battery. It lives in the
// root package's external test (package iva_test) because it needs both
// fault-injection access to the index file (via VectorExtentsForTest) and
// internal/server — which imports iva, so an internal test file cannot
// import it.
package iva_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/dataset"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/server"
)

// TestServerEquivalenceDegraded proves the HTTP path preserves the
// degraded-read guarantee: with a corrupt vector-list segment on disk, every
// HTTP answer stays byte-identical to the in-process answer, and at least one query reports its degraded segments
// through the wire stats.
func TestServerEquivalenceDegraded(t *testing.T) {
	const (
		seed  = 4242
		nrows = 400
		nq    = 40
	)
	dir := t.TempDir()
	s, err := iva.Create(dir, iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.New(dataset.MixConfig(seed))
	for i := 0; i < nrows; i++ {
		row := make(iva.Row)
		for r, v := range g.Values(i) {
			if v.Kind == model.KindNumeric {
				row[g.AttrName(r)] = iva.Num(v.Num)
			} else {
				row[g.AttrName(r)] = iva.Strings(v.Strs...)
			}
		}
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	exts := s.VectorExtentsForTest()
	if len(exts) == 0 {
		t.Fatal("store has no committed vector extents")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one committed bit in the middle of each of the first few extents
	// so several attributes degrade, then reopen.
	idxPath := filepath.Join(dir, "iva.idx")
	blob, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(exts) && i < 3; i++ {
		blob[exts[i].Offset+exts[i].Len/2] ^= 0x10
	}
	if err := os.WriteFile(idxPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = iva.Open(dir, iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	srv := server.New(s, nil, server.Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	degraded := 0
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < nq; i++ {
		spec := g.MixQuery(rng, nrows)
		req := &server.SearchRequest{K: spec.K}
		for _, term := range spec.Terms {
			st := server.SearchTerm{Attr: term.Name, Weight: term.Weight}
			if term.Kind == model.KindNumeric {
				n := term.Num
				st.Num = &n
			} else {
				str := term.Str
				st.Text = &str
			}
			req.Terms = append(req.Terms, st)
		}

		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
		var got server.SearchResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		want, qs, err := s.SearchContext(context.Background(), req.Query())
		if err != nil {
			t.Fatalf("query %d: in-process search: %v", i, err)
		}
		httpBytes, err := json.Marshal(got.Results)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := json.Marshal(server.Results(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(httpBytes, wantBytes) {
			t.Fatalf("query %d: degraded answers diverge\n  http:    %s\n  in-proc: %s", i, httpBytes, wantBytes)
		}
		if got.Stats.DegradedSegments > 0 {
			degraded++
			if qs.DegradedSegments == 0 {
				t.Fatalf("query %d: HTTP reports %d degraded segments, in-process 0", i, got.Stats.DegradedSegments)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query touched the corrupt extents — the degraded path was not exercised")
	}
}
