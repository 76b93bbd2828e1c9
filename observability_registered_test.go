// TestDocumentedMetricsRegistered needs internal/server, which imports iva, so
// it lives in the root package's external test.
package iva_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/server"
)

// TestDocumentedMetricsRegistered is the reverse of TestMetricsDocumented and
// TestServerMetricsDocumented: every family OBSERVABILITY.md's reference tables
// name must appear in the exposition of some role — a store with a scrubber
// that is also a replication primary, a follower of it, and the query service
// over it — so a family that is deleted cannot stay documented.
func TestDocumentedMetricsRegistered(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(doc), "## Metric reference")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no metric reference")
	}
	documented := regexp.MustCompile("(?m)^\\| `(iva_[a-z0-9_]+)` \\|").FindAllStringSubmatch(ref, -1)
	if len(documented) < 30 {
		t.Fatalf("reference tables name only %d families", len(documented))
	}

	base := t.TempDir()
	primary, err := iva.Create(filepath.Join(base, "primary"), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Insert(iva.Row{"Price": iva.Num(1)}); err != nil {
		t.Fatal(err)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	sc := primary.StartScrubber(iva.ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	sc.SweepNow()

	api := server.New(primary, nil, server.Config{})
	mux := http.NewServeMux()
	api.Register(mux)
	api.RegisterRepl(mux, primary)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/search", "application/json",
		bytes.NewReader([]byte(`{"k":1,"terms":[{"attr":"Price","num":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search answered %d", resp.StatusCode)
	}

	follower, err := iva.OpenFollower(filepath.Join(base, "follower"), srv.URL, iva.FollowerOptions{Poll: time.Hour}, iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	exposed := primary.MetricsText() + follower.MetricsText() + api.MetricsText()
	for _, m := range documented {
		if !strings.Contains(exposed, "# TYPE "+m[1]+" ") {
			t.Errorf("OBSERVABILITY.md documents %s, which no role registers", m[1])
		}
	}
}
