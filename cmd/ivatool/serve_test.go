package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/server"
)

// TestServeEndpoints drives a store under load through the HTTP surface:
// /metrics must be valid Prometheus text with the latency histogram, cache
// counters and phase timings; /healthz must report the scrubber's ok; a slow query must
// surface in /debug/querylog with its per-term trace.
func TestServeEndpoints(t *testing.T) {
	st, err := iva.Create(t.TempDir(), iva.Options{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 200; i++ {
		if _, err := st.Insert(iva.Row{
			"brand": iva.Strings([]string{"canon", "nikon"}[i%2]),
			"price": iva.Num(float64(100 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		q := iva.NewQuery(3).WhereText("brand", "cannon").WhereNum("price", float64(120+i))
		if _, _, err := st.Search(q); err != nil {
			t.Fatal(err)
		}
	}

	sc := st.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	srv := httptest.NewServer(serveMux(st, sc, nil, false))
	defer srv.Close()

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp
	}

	metrics, resp := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"iva_query_duration_seconds_bucket{le=",
		"iva_query_duration_seconds_count 5",
		`iva_query_phase_duration_seconds_bucket{phase="filter"`,
		`iva_query_phase_duration_seconds_bucket{phase="refine"`,
		"iva_io_cache_hits_total",
		`iva_io_reads_total{class="rand"}`,
		"iva_slow_queries_total 5",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	health, resp := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(health, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, health)
	}

	qlog, resp := get("/debug/querylog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/querylog status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/querylog content type %q", ct)
	}
	var entries []struct {
		Query      string          `json:"query"`
		DurationMS float64         `json:"duration_ms"`
		Trace      json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(qlog), &entries); err != nil {
		t.Fatalf("/debug/querylog invalid JSON %q: %v", qlog, err)
	}
	if len(entries) != 5 {
		t.Fatalf("%d slow entries, want 5", len(entries))
	}
	for _, want := range []string{`"term:brand"`, `"term:price"`, `"filter"`, `"refine"`} {
		if !strings.Contains(string(entries[0].Trace), want) {
			t.Errorf("querylog trace missing %s", want)
		}
	}
}

// TestServeAPIMux covers the serve wiring with the query API mounted: the
// /v1 endpoints answer through the store, and /metrics exposes the store
// families followed by the iva_server_* families on one page.
func TestServeAPIMux(t *testing.T) {
	st, err := iva.Create(t.TempDir(), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		if _, err := st.Insert(iva.Row{"price": iva.Num(float64(100 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	api := server.New(st, nil, server.Config{})
	sc := st.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	srv := httptest.NewServer(serveMux(st, sc, api, false))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/search", "application/json",
		strings.NewReader(`{"k":3,"terms":[{"attr":"price","num":120}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/search status %d", resp.StatusCode)
	}
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("/v1/search returned %d results, want 3", len(sr.Results))
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iva_query_duration_seconds_count", "iva_server_requests_total", "iva_server_admitted_total"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q with API mounted", want)
		}
	}
}

// TestGracefulServeDrain drives the real signal path: a signal on the
// channel drains the server (completing a search already past admission) and
// gracefulServe returns cleanly.
func TestGracefulServeDrain(t *testing.T) {
	st, err := iva.Create(t.TempDir(), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		if _, err := st.Insert(iva.Row{"price": iva.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	api := server.New(st, nil, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc := st.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	hs := &http.Server{Handler: serveMux(st, sc, api, false)}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- gracefulServe(hs, ln, api, 5*time.Second, sig) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/v1/search", "application/json",
		strings.NewReader(`{"k":2,"terms":[{"attr":"price","num":25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain search status %d", resp.StatusCode)
	}

	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gracefulServe: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gracefulServe never returned after signal")
	}
	if !api.Draining() {
		t.Fatal("server not draining after signal")
	}
}
