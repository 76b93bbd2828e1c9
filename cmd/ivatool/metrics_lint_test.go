package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/server"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintExposition parses a Prometheus 0.0.4 text exposition and returns every
// format violation: invalid metric or label names, duplicate HELP/TYPE lines,
// duplicate samples, and unparseable values. This is the in-process metrics
// lint the CI workflow runs.
func lintExposition(text string) []string {
	var problems []string
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	sampleSeen := map[string]bool{}
	for n, line := range strings.Split(text, "\n") {
		lineNo := n + 1
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("line %d: %s: %q", lineNo, fmt.Sprintf(format, args...), line))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line[len("# HELP "):], " ", 2)
			name := fields[0]
			if !metricNameRe.MatchString(name) {
				bad("invalid metric name %q", name)
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				if helpSeen[name] {
					bad("duplicate HELP for %s", name)
				}
				helpSeen[name] = true
			} else {
				if _, dup := typeSeen[name]; dup {
					bad("duplicate TYPE for %s", name)
				}
				if len(fields) < 2 {
					bad("TYPE without a kind")
					continue
				}
				typeSeen[name] = fields[1]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		// Sample: name[{labels}] value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			j := strings.LastIndexByte(rest, '}')
			if j < i {
				bad("unterminated label set")
				continue
			}
			name, labels, rest = rest[:i], rest[i:j+1], rest[j+1:]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			name, rest = rest[:i], rest[i:]
		}
		if !metricNameRe.MatchString(name) {
			bad("invalid metric name %q", name)
			continue
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typeSeen[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typeSeen[family]; !ok {
			bad("sample %s has no TYPE line", name)
		}
		for _, pair := range splitLabels(labels) {
			k, _, ok := strings.Cut(pair, "=")
			if !ok || !labelNameRe.MatchString(k) {
				bad("invalid label %q", pair)
			}
		}
		key := name + labels
		if sampleSeen[key] {
			bad("duplicate sample %s", key)
		}
		sampleSeen[key] = true
		val := strings.TrimSpace(rest)
		if val == "" {
			bad("sample without a value")
			continue
		}
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				bad("unparseable value %q", val)
			}
		}
	}
	return problems
}

// splitLabels splits `{a="x",b="y"}` into pairs, honoring escaped quotes.
func splitLabels(s string) []string {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	if s == "" {
		return nil
	}
	var out []string
	start, inQ, esc := 0, false, false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == '"':
			inQ = !inQ
		case s[i] == ',' && !inQ:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func TestLintCatchesViolations(t *testing.T) {
	broken := "# TYPE ok counter\nok 1\nok 1\n" + // duplicate sample
		"no_type_metric 2\n" + // no TYPE
		"bad-name 3\n" + // invalid name
		"# TYPE v gauge\nv notanumber\n" // bad value
	if got := len(lintExposition(broken)); got != 4 {
		t.Fatalf("lint found %d problems in the known-bad exposition, want 4:\n%v",
			got, lintExposition(broken))
	}
}

// TestMetricsLint scrapes a live store — queries run, scrubber swept, slow
// log populated — through the real /metrics handler and fails on any
// exposition-format violation. CI runs this as its metrics-lint step.
func TestMetricsLint(t *testing.T) {
	st, err := iva.Create(t.TempDir(), iva.Options{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 150; i++ {
		if _, err := st.Insert(iva.Row{
			"brand": iva.Strings("canon"),
			"price": iva.Num(float64(100 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		q := iva.NewQuery(3).WhereText("brand", "cannon").WhereNum("price", float64(120+i))
		if _, _, err := st.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	sc := st.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	sc.SweepNow()

	// Mount the query API too: /metrics then serves the store families
	// followed by the iva_server_* families, and the lint must hold on the
	// concatenated page (duplicate family names would be a violation).
	api := server.New(st, nil, server.Config{})
	srv := httptest.NewServer(serveMux(st, sc, api, false))
	defer srv.Close()
	if resp, err := http.Post(srv.URL+"/v1/search", "application/json",
		strings.NewReader(`{"k":2,"terms":[{"attr":"price","num":120}]}`)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("priming /v1/search failed: %v / %v", err, resp)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lintExposition(string(body)) {
		t.Error(p)
	}
	// The telemetry families this PR adds must actually be in the scrape.
	for _, want := range []string{"iva_scrub_sweeps_total", "iva_health_state", "iva_build_info",
		"iva_server_requests_total", "iva_server_shed_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestServeTelemetryEndpoints covers the endpoints this PR adds to the serve
// mux: the trace ring with exemplars, the querylog format switch, the
// scrubber-backed healthz, and the pprof gate.
func TestServeTelemetryEndpoints(t *testing.T) {
	st, err := iva.Create(t.TempDir(), iva.Options{SlowQueryThreshold: time.Nanosecond}) // every query is slow, and so retained
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 100; i++ {
		if _, err := st.Insert(iva.Row{"price": iva.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	_, qs, err := st.Search(iva.NewQuery(3).WhereNum("price", 40))
	if err != nil {
		t.Fatal(err)
	}
	sc := st.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	sc.SweepNow()

	srv := httptest.NewServer(serveMux(st, sc, nil, false))
	defer srv.Close()
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ct := get("/debug/trace")
	if code != 200 || ct != "application/json" {
		t.Fatalf("/debug/trace = %d %q", code, ct)
	}
	var doc struct {
		Total     int64             `json:"total"`
		Traces    []json.RawMessage `json:"traces"`
		Exemplars []json.RawMessage `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace invalid JSON: %v\n%s", err, body)
	}
	if doc.Total < 1 || len(doc.Traces) < 1 || len(doc.Exemplars) < 1 {
		t.Fatalf("/debug/trace retained total=%d traces=%d exemplars=%d", doc.Total, len(doc.Traces), len(doc.Exemplars))
	}

	if code, body, _ := get("/debug/trace?id=" + qs.TraceID); code != 200 || !strings.Contains(body, qs.TraceID) {
		t.Fatalf("/debug/trace?id=%s = %d %q", qs.TraceID, code, body)
	}
	if code, _, _ := get("/debug/trace?id=ffffffffffffffff"); code != 404 {
		t.Fatalf("unknown trace id returned %d, want 404", code)
	}

	if code, _, ct := get("/debug/querylog?format=text"); code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/debug/querylog?format=text = %d %q", code, ct)
	}
	if code, _, _ := get("/debug/querylog?format=xml"); code != 400 {
		t.Fatalf("unknown querylog format returned %d, want 400", code)
	}

	code, body, ct = get("/healthz")
	if code != 200 || ct != "application/json" || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %q %q", code, ct, body)
	}

	// pprof stays dark unless the flag was set.
	if code, _, _ := get("/debug/pprof/"); code != 404 {
		t.Fatalf("pprof reachable without -pprof: %d", code)
	}
	srvP := httptest.NewServer(serveMux(st, sc, nil, true))
	defer srvP.Close()
	resp, err := http.Get(srvP.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index with -pprof: %d", resp.StatusCode)
	}
}
