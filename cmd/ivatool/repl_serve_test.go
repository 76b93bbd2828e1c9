package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/repl"
	"github.com/sparsewide/iva/internal/server"
)

// TestReplOverHTTP is the end-to-end follower path over the real wire: a
// primary served by the HTTP mux, a follower attached with OpenFollower
// against its URL, bootstrap, catch-up across multiple delta cuts and across a
// rebuild through the one /v1/repl/deltas route — every answer a 200 batch —
// byte-identical answers, and the replication verdict on both /healthz bodies.
func TestReplOverHTTP(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := iva.Create(pdir, iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 250; i++ {
		if _, err := primary.Insert(iva.Row{
			"brand": iva.Strings(fmt.Sprintf("brand-%02d", i%17)),
			"price": iva.Num(float64(100 + i%90)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	api := server.New(primary, nil, server.Config{})
	// Every status the replication plane answers with is recorded.
	var replMu sync.Mutex
	replCodes := map[int]int{}
	psc := primary.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer psc.Stop()
	mux := serveMux(primary, psc, api, false)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r)
		if strings.HasPrefix(r.URL.Path, "/v1/repl/") {
			replMu.Lock()
			replCodes[rec.code]++
			replMu.Unlock()
		}
	}))
	defer srv.Close()

	follower, err := iva.OpenFollower(fdir, srv.URL, iva.FollowerOptions{Poll: 5 * time.Millisecond}, iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fsc := follower.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer fsc.Stop()
	waitGen := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for follower.ReplStatus().Gen < want {
			if time.Now().After(deadline) {
				rs := follower.ReplStatus()
				t.Fatalf("follower stuck at gen %d (want %d), last error %q", rs.Gen, want, rs.LastError)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	compare := func(tag string) {
		t.Helper()
		for i := 0; i < 8; i++ {
			q := iva.NewQuery(7).WhereText("brand", fmt.Sprintf("brand-%02d", i)).WhereNum("price", float64(110+i))
			pres, _, perr := primary.Search(q)
			fres, _, ferr := follower.Search(q)
			if perr != nil || ferr != nil {
				t.Fatalf("%s: search errors: %v / %v", tag, perr, ferr)
			}
			if len(pres) != len(fres) {
				t.Fatalf("%s: %d vs %d results", tag, len(pres), len(fres))
			}
			for j := range pres {
				if pres[j] != fres[j] {
					t.Fatalf("%s: result %d differs: %v vs %v", tag, j, pres[j], fres[j])
				}
			}
		}
	}
	waitGen(primary.ReplStatus().Gen)
	compare("bootstrap over HTTP")

	// More cuts while the wire is live.
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			if _, err := primary.Insert(iva.Row{
				"brand": iva.Strings(fmt.Sprintf("brand-%02d", (round*40+i)%17)),
				"price": iva.Num(float64(300 + round*40 + i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := primary.Sync(); err != nil {
			t.Fatal(err)
		}
		waitGen(primary.ReplStatus().Gen)
		compare(fmt.Sprintf("round %d", round))
	}

	// A rebuild replaces the primary's files; the follower's next poll is
	// answered with them whole, on the same route.
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	waitGen(primary.ReplStatus().Gen)
	compare("after a primary rebuild")
	if rs := follower.ReplStatus(); rs.LastError != "" {
		t.Fatalf("crossing a rebuild recorded an error: %q", rs.LastError)
	}

	// A query is a read on both sides of the wire: searches over HTTP naming
	// attributes neither store has seen register nothing — not on the primary,
	// not on the read-only follower — and both answer alike, the unknown term
	// charged to every tuple.
	fapi := httptest.NewServer(serveMux(follower, fsc, server.New(follower, nil, server.Config{}), false))
	defer fapi.Close()
	attrs := primary.Stats().Attributes
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"k":4,"terms":[{"attr":"price","num":%d},{"attr":"ghost-%d","text":"x"}]}`, 120+i, i)
		var answers [2]string
		for j, url := range []string{srv.URL, fapi.URL} {
			resp, err := http.Post(url+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var sr server.SearchResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(sr.Results) != 4 {
				t.Fatalf("search %d on %s: status %d, %d results, %v", i, url, resp.StatusCode, len(sr.Results), err)
			}
			answers[j] = fmt.Sprint(sr.Results)
		}
		if answers[0] != answers[1] {
			t.Fatalf("search %d: primary %s, follower %s", i, answers[0], answers[1])
		}
	}
	if p, f := primary.Stats().Attributes, follower.Stats().Attributes; p != attrs || f != attrs {
		t.Fatalf("queries on unknown attributes registered them: primary %d, follower %d attributes, were %d", p, f, attrs)
	}

	// The primary's healthz carries the primary verdict line.
	body := httpGet(t, srv.URL+"/healthz")
	if !strings.Contains(body, "replication: role=primary") {
		t.Fatalf("primary healthz missing replication line:\n%s", body)
	}

	// The replication families are in the scrape and the page still lints.
	body = httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{"iva_repl_deltas_cut_total", "iva_repl_generation", "iva_repl_log_deltas"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, p := range lintExposition(body) {
		t.Error(p)
	}

	// A mux over the follower store reports the follower verdict with lag.
	fsrv := httptest.NewServer(serveMux(follower, fsc, nil, false))
	defer fsrv.Close()
	body = httpGet(t, fsrv.URL+"/healthz")
	if !strings.Contains(body, "replication: role=follower") || !strings.Contains(body, "primary_gen=") {
		t.Fatalf("follower healthz missing replication line:\n%s", body)
	}

	// A cursor the primary cannot continue is answered like any other: 200,
	// with one Full delta in the batch. There is no second route to ask on.
	resp, err := http.Get(srv.URL + "/v1/repl/deltas?epoch=9999&from=0")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stale epoch returned %d (%v), want 200", resp.StatusCode, err)
	}
	if b, err := repl.DecodeBatch(blob); err != nil || len(b.Deltas) != 1 || !b.Deltas[0].Full {
		t.Fatalf("stale epoch answered with %+v (%v), want a batch of one Full delta", b, err)
	}
	// Gone: the route a Full delta used to have to itself, and the raw
	// file-range fetch of read-repair.
	for _, gone := range []string{"/v1/repl/" + "snapshot", "/v1/repl/" + "segment?file=iva.idx&off=0&len=16"} {
		resp, err = http.Get(srv.URL + gone)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s returned %d, want 404", gone, resp.StatusCode)
		}
	}
	// Bad requests are rejected, not served as empty payloads.
	resp, err = http.Get(srv.URL + "/v1/repl/deltas?epoch=-1&from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a negative epoch returned %d, want 400", resp.StatusCode)
	}
	replMu.Lock()
	defer replMu.Unlock()
	if replCodes[http.StatusOK] == 0 || replCodes[410] != 0 {
		t.Fatalf("replication plane statuses %v: want 200s and no 410", replCodes)
	}
}

// TestServeRefusesPeer: serve has no read-repair peer any more — a follower's
// damage is cured by its next poll, a primary's by Rebuild — so -peer is a
// flag error, not an option quietly ignored, and nothing is opened.
func TestServeRefusesPeer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	err := run("serve", []string{"-peer", "http://127.0.0.1:1"}, dir, 10, serveOpts{drainTimeout: time.Second, poll: time.Second}, iva.Options{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -peer") {
		t.Fatalf("serve -peer returned %v, want the flag error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("serve -peer touched the store directory (%v)", err)
	}
}

// statusRecorder notes the status a handler answers with.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
