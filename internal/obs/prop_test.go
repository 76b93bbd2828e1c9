package obs

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramConcurrentProperties hammers one histogram from many
// goroutines (run under -race in CI) and then checks the invariants the
// exposition format relies on: cumulative bucket counts are monotonically
// non-decreasing, the +Inf bucket equals Count, Count equals the number of
// observations made, and Sum matches the known total.
func TestHistogramConcurrentProperties(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("prop_hist", "property test", nil, []float64{0.25, 0.5, 1, 2, 4})

	const workers = 8
	const perWorker = 5000
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				v := rng.Float64() * 5
				sums[w] += v
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	if got, want := h.Count(), int64(workers*perWorker); got != want {
		t.Fatalf("count %d, want %d observations", got, want)
	}
	bounds, cum := h.Buckets()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not monotone at le=%g: %d < %d", bounds[i], cum[i], cum[i-1])
		}
	}
	if len(cum) > 0 && cum[len(cum)-1] > h.Count() {
		t.Fatalf("largest finite bucket (%d) exceeds +Inf cumulative count (%d)",
			cum[len(cum)-1], h.Count())
	}
	var want float64
	for _, s := range sums {
		want += s
	}
	if got := h.Sum(); got < want*0.999999 || got > want*1.000001 {
		t.Fatalf("sum %g, want %g", got, want)
	}
}

// TestHistogramScrapesConsistent reads the exposition while observations land
// (run under -race in CI) and checks every scrape on its own: the le series is
// monotone, +Inf is at least every finite bucket, and _count equals +Inf.
// Every value falls below the largest finite bound, so at rest +Inf equals
// that bucket and a scrape that saw an observation in its bucket but not yet
// in the count would show +Inf below it.
func TestHistogramScrapesConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scrape_seconds", "scrape test", nil, []float64{0.25, 0.5, 1, 2, 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(rng.Float64() * 4)
				}
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	sample := regexp.MustCompile(`(?m)^scrape_seconds_(bucket\{le="([^"]+)"\}|count) (\d+)$`)
	for i := 0; i < 5000; i++ {
		var prev, inf, count int64 = -1, -1, -1
		for _, m := range sample.FindAllStringSubmatch(r.Text(), -1) {
			n, _ := strconv.ParseInt(m[3], 10, 64)
			switch {
			case m[1] == "count":
				count = n
			case n < prev:
				t.Fatalf("scrape %d: bucket le=%s holds %d, below the previous bucket's %d", i, m[2], n, prev)
			case m[2] == "+Inf":
				inf = n
			}
			prev = max(prev, n)
		}
		if inf < 0 || count != inf {
			t.Fatalf("scrape %d: _count %d, +Inf bucket %d", i, count, inf)
		}
	}
}

// TestRegistryGetOrCreateConcurrent asserts the get-or-create contract under
// contention: every goroutine must receive the same counter handle, so the
// final value is exactly the number of Incs.
func TestRegistryGetOrCreateConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("prop_ctr", "property test", Labels{"shard": "0"}).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("prop_ctr", "property test", Labels{"shard": "0"}).Value(); got != workers*perWorker {
		t.Fatalf("counter %d, want %d — get-or-create handed out distinct handles", got, workers*perWorker)
	}
}

// TestDuplicateKindPanics pins the registry's misuse guard: registering an
// existing family under a different metric kind is a programming error and
// must panic rather than silently corrupt the exposition.
func TestDuplicateKindPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_metric", "first registration", nil)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "dup_metric") {
			t.Fatalf("panic message %v does not name the metric", rec)
		}
	}()
	r.Gauge("dup_metric", "conflicting registration", nil)
}

// TestLabelEscaping pins the exposition-format escaping rules for label
// values: backslash, double quote, and newline must come out escaped so one
// hostile value cannot corrupt the whole scrape.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escape test", Labels{"path": `C:\tmp`}).Inc()
	r.Counter("esc_total", "escape test", Labels{"path": `say "hi"`}).Inc()
	r.Counter("esc_total", "escape test", Labels{"path": "line1\nline2"}).Inc()
	r.Gauge("esc_gauge", "help with\nnewline and \\ backslash", nil).Set(1)

	text := r.Text()
	for _, want := range []string{
		`esc_total{path="C:\\tmp"} 1`,
		`esc_total{path="say \"hi\""} 1`,
		`esc_total{path="line1\nline2"} 1`,
		`# HELP esc_gauge help with\nnewline and \\ backslash`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// No raw newline may survive inside a sample line: every line is either
	// a comment, blank, or "name{labels} value".
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") == 0 {
			t.Errorf("sample line %q has no value separator — escaping leaked a newline", line)
		}
	}
}
