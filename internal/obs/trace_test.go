package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	root := StartSpan("query")
	filter := root.Child("filter")
	term := filter.Child("term:price")
	term.SetInt("scanned", 100)
	term.SetStr("kind", "numeric")
	term.EndAt(0)
	filter.EndAt(3 * time.Millisecond)
	refine := root.Child("refine")
	refine.EndAt(time.Millisecond)
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	if root.Find("term:price") == nil {
		t.Fatal("Find did not reach the nested term span")
	}
	if v, ok := root.Find("term:price").Attr("scanned"); !ok || v != "100" {
		t.Fatalf("scanned attr = %q, %v", v, ok)
	}
	if filter.Duration() != 3*time.Millisecond {
		t.Fatalf("filter duration = %v", filter.Duration())
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration = %v", root.Duration())
	}

	blob, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name     string         `json:"name"`
			Attrs    map[string]any `json:"attrs"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"children"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid span JSON %s: %v", blob, err)
	}
	if decoded.Name != "query" || decoded.Children[0].Name != "filter" ||
		decoded.Children[0].Children[0].Name != "term:price" {
		t.Fatalf("unexpected tree: %s", blob)
	}

	var text strings.Builder
	if err := root.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "  filter") || !strings.Contains(text.String(), "    term:price") {
		t.Fatalf("text rendering lost nesting:\n%s", text.String())
	}
}

// TestSpanNilSafe verifies disabled tracing (nil spans) is inert end to end.
func TestSpanNilSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.SetInt("k", 1)
	c.End()
	if s.Find("y") != nil || s.Duration() != 0 || s.Name() != "" {
		t.Fatal("nil span not inert")
	}
	if _, ok := s.Attr("k"); ok {
		t.Fatal("nil span has attrs")
	}
}

// TestSpanConcurrentChild attaches and annotates children of one span from
// several goroutines; run under -race it holds Span to its mutex.
func TestSpanConcurrentChild(t *testing.T) {
	root := StartSpan("query")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("term")
			c.SetInt("n", 1)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 8 {
		t.Fatalf("attached %d children, want 8", got)
	}
}
