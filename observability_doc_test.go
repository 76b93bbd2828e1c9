package iva

import (
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMetricsDocumented keeps OBSERVABILITY.md honest: every metric family a
// running store (with a scrubber) actually registers must appear in the
// reference table. New metrics fail this test until documented.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("OBSERVABILITY.md unreadable: %v", err)
	}
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Insert(map[string]Value{"Price": Num(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Search(NewQuery(1).WhereNum("Price", 1)); err != nil {
		t.Fatal(err)
	}
	sc := s.StartScrubber(ScrubberOptions{Interval: time.Hour})
	defer sc.Stop()
	sc.SweepNow()

	typeLine := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	families := typeLine.FindAllStringSubmatch(s.MetricsText(), -1)
	if len(families) < 30 {
		t.Fatalf("exposition registered only %d families — the store under test lost its telemetry", len(families))
	}
	docText := string(doc)
	for _, m := range families {
		name := m[1]
		if !regexp.MustCompile("`" + regexp.QuoteMeta(name) + "`").MatchString(docText) {
			t.Errorf("metric family %s is not documented in OBSERVABILITY.md", name)
		}
	}
}
