package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparsewide/iva"
)

// stubBackend is a controllable Backend for admission tests: it counts calls
// (so sheds can prove "no index work happened") and can block inside
// SearchContext until released or cancelled.
type stubBackend struct {
	calls   atomic.Int64
	started chan struct{} // when non-nil, receives one token as a call begins
	release chan struct{} // when non-nil, calls block on it (or ctx)
}

func (b *stubBackend) SearchContext(ctx context.Context, q *iva.Query) ([]iva.Result, iva.QueryStats, error) {
	b.calls.Add(1)
	if b.started != nil {
		b.started <- struct{}{}
	}
	if b.release != nil {
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, iva.QueryStats{}, ctx.Err()
		}
	}
	return []iva.Result{{TID: 7, Dist: 1.5}}, iva.QueryStats{}, nil
}

func (b *stubBackend) Get(iva.TID) (iva.Row, error) { return nil, iva.ErrNotFound }
func (b *stubBackend) Stats() iva.StoreStats        { return iva.StoreStats{} }

// fakeClock is a manually advanced Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestServer(t *testing.T, be Backend, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(be, nil, cfg)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, ts
}

var validBody = []byte(`{"k":3,"terms":[{"attr":"price","num":120}]}`)

// trySearch is doSearch without test plumbing, safe to call from helper
// goroutines; a transport failure returns 0.
func trySearch(ts *httptest.Server, tenantName string, body []byte) int {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	if tenantName != "" {
		req.Header.Set(TenantHeader, tenantName)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func doSearch(t *testing.T, ts *httptest.Server, tenantName string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenantName != "" {
		req.Header.Set(TenantHeader, tenantName)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// metricValue scrapes one sample from a Prometheus text exposition: the first
// line whose name matches and whose label block contains every given
// `k="v"` fragment.
func metricValue(t *testing.T, text, family string, labelFragments ...string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		ok := true
		for _, frag := range labelFragments {
			if !strings.Contains(rest, frag) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample line %q", family, line)
		}
		return v
	}
	return 0
}

// TestAdmissionQuota: exhausting a tenant's token bucket answers 429 with a
// Retry-After hint and touches no index work; the bucket refills with time,
// and other tenants are unaffected.
func TestAdmissionQuota(t *testing.T) {
	be := &stubBackend{}
	clock := newFakeClock()
	srv, ts := newTestServer(t, be, Config{QPS: 1, Burst: 2, Now: clock.now})

	for i := 0; i < 2; i++ {
		if resp, body := doSearch(t, ts, "", validBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doSearch(t, ts, "", validBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("over quota: Retry-After = %q, want a positive hint", ra)
	}
	if !strings.Contains(body, ShedQuota) {
		t.Fatalf("over quota: body %q does not name the %q reason", body, ShedQuota)
	}
	if got := be.calls.Load(); got != 2 {
		t.Fatalf("backend saw %d calls, want 2 (shed request must not reach the index)", got)
	}

	// Another tenant has its own bucket.
	if resp, body := doSearch(t, ts, "other", validBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: HTTP %d: %s", resp.StatusCode, body)
	}

	// One second refills one token.
	clock.advance(time.Second)
	if resp, body := doSearch(t, ts, "", validBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: HTTP %d: %s", resp.StatusCode, body)
	}

	text := srv.MetricsText()
	if v := metricValue(t, text, "iva_server_shed_total", `tenant="default"`, `reason="quota"`); v != 1 {
		t.Fatalf("iva_server_shed_total{quota} = %v, want 1", v)
	}
	if v := metricValue(t, text, "iva_server_admitted_total", `tenant="default"`); v != 3 {
		t.Fatalf("iva_server_admitted_total = %v, want 3", v)
	}
}

// TestAdmissionConcurrencyFlood: with all execution slots busy and the
// admission queue full, a flood of further requests sheds immediately with
// 429/queue_full and zero backend calls; queued requests complete once slots
// free, and the inflight/queue gauges return to zero (no leaked admissions).
func TestAdmissionConcurrencyFlood(t *testing.T) {
	be := &stubBackend{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	srv, ts := newTestServer(t, be, Config{
		MaxConcurrent:  2,
		MaxQueue:       2,
		DefaultTimeout: 30 * time.Second,
	})

	// Fill both execution slots.
	results := make(chan int, 4)
	for i := 0; i < 2; i++ {
		go func() { results <- trySearch(ts, "", validBody) }()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-be.started:
		case <-time.After(5 * time.Second):
			t.Fatal("backend never saw the slot-filling calls")
		}
	}

	// Fill the admission queue behind them.
	for i := 0; i < 2; i++ {
		go func() { results <- trySearch(ts, "", validBody) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		depth := metricValue(t, srv.MetricsText(), "iva_server_queue_depth", `tenant="default"`)
		if depth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %v, want 2", depth)
		}
		time.Sleep(time.Millisecond)
	}

	// Flood: every further arrival must shed synchronously without touching
	// the backend.
	callsBefore := be.calls.Load()
	for i := 0; i < 25; i++ {
		resp, body := doSearch(t, ts, "", validBody)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("flood request %d: HTTP %d, want 429: %s", i, resp.StatusCode, body)
		}
		if !strings.Contains(body, ShedQueueFull) {
			t.Fatalf("flood request %d: body %q does not name %q", i, body, ShedQueueFull)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("flood request %d: missing Retry-After", i)
		}
	}
	if got := be.calls.Load(); got != callsBefore {
		t.Fatalf("flood reached the backend: %d calls, want %d", got, callsBefore)
	}

	// Release: the two executing and two queued requests all complete.
	close(be.release)
	for i := 0; i < 4; i++ {
		select {
		case code := <-results:
			if code != http.StatusOK {
				t.Fatalf("blocked request finished with HTTP %d", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked requests never completed after release")
		}
	}
	if got := be.calls.Load(); got != 4 {
		t.Fatalf("backend calls = %d, want 4", got)
	}

	// No leaked admissions: gauges settle back to zero.
	deadline = time.Now().Add(5 * time.Second)
	for {
		text := srv.MetricsText()
		inflight := metricValue(t, text, "iva_server_inflight", `tenant="default"`)
		depth := metricValue(t, text, "iva_server_queue_depth", `tenant="default"`)
		if inflight == 0 && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges leaked: inflight=%v queue=%v", inflight, depth)
		}
		time.Sleep(time.Millisecond)
	}
	if v := metricValue(t, srv.MetricsText(), "iva_server_shed_total", `tenant="default"`, `reason="queue_full"`); v != 25 {
		t.Fatalf("iva_server_shed_total{queue_full} = %v, want 25", v)
	}
}

// TestAdmissionExpiredDeadline: a request whose deadline has already passed
// is shed at admission — before consuming a slot, a queue place, or any
// index work.
func TestAdmissionExpiredDeadline(t *testing.T) {
	be := &stubBackend{}
	srv := New(be, nil, Config{})
	tn := srv.tenantFor("")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	release, shed := srv.admit(ctx, tn)
	if release != nil || shed == nil || shed.reason != ShedExpired {
		t.Fatalf("admit(expired ctx) = (release=%v, %+v), want (nil, %s)", release != nil, shed, ShedExpired)
	}
	if got := tn.queued.Load(); got != 0 {
		t.Fatalf("expired request consumed a queue place: %d", got)
	}
	if len(tn.slots) != 0 {
		t.Fatalf("expired request consumed a slot")
	}
	if v := metricValue(t, srv.MetricsText(), "iva_server_admitted_total", `tenant="default"`); v != 0 {
		t.Fatalf("expired request counted as admitted")
	}
	if be.calls.Load() != 0 {
		t.Fatal("expired request reached the backend")
	}
}

// TestAdmissionDeadlineWhileQueued: a queued request whose deadline expires
// before a slot frees is shed with the deadline reason, and its queue place
// is returned.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	srv := New(&stubBackend{}, nil, Config{MaxConcurrent: 1, MaxQueue: 4})
	tn := srv.tenantFor("")
	tn.slots <- struct{}{} // occupy the only slot

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	release, shed := srv.admit(ctx, tn)
	if release != nil || shed == nil || shed.reason != ShedDeadline {
		t.Fatalf("admit(queued, expiring) = (release=%v, %+v), want (nil, %s)", release != nil, shed, ShedDeadline)
	}
	if got := tn.queued.Load(); got != 0 {
		t.Fatalf("shed request kept its queue place: %d", got)
	}
	if v := metricValue(t, srv.MetricsText(), "iva_server_queue_depth", `tenant="default"`); v != 0 {
		t.Fatalf("queue gauge leaked: %v", v)
	}
}

// TestGracefulDrain: Drain lets in-flight queries finish while shedding new
// arrivals with 503 + Retry-After, then returns; a drain that cannot finish
// in time reports the stuck count.
func TestGracefulDrain(t *testing.T) {
	be := &stubBackend{
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv, ts := newTestServer(t, be, Config{DefaultTimeout: 30 * time.Second})

	inFlight := make(chan int, 1)
	go func() { inFlight <- trySearch(ts, "", validBody) }()
	select {
	case <-be.started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never started")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}

	// New arrivals shed with 503.
	resp, body := doSearch(t, ts, "", validBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining: HTTP %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, ShedDraining) || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining shed lacks reason/Retry-After: %s", body)
	}
	if got := be.calls.Load(); got != 1 {
		t.Fatalf("draining request reached the backend (%d calls)", got)
	}

	// The in-flight query completes, then Drain returns.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight query finished", err)
	default:
	}
	close(be.release)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with HTTP %d during drain", code)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
}

// TestDrainTimeout: a drain whose context expires while a query is stuck
// reports the in-flight count instead of hanging.
func TestDrainTimeout(t *testing.T) {
	be := &stubBackend{
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv, ts := newTestServer(t, be, Config{DefaultTimeout: 30 * time.Second})
	go trySearch(ts, "", validBody)
	select {
	case <-be.started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a query still in flight")
	}
	close(be.release)
}

// TestBadRequestNeverQueries: malformed or invalid bodies answer 400 and
// never reach the backend (nor debit admission state).
func TestBadRequestNeverQueries(t *testing.T) {
	be := &stubBackend{}
	srv, ts := newTestServer(t, be, Config{})
	bad := [][]byte{
		nil,
		[]byte(`{`),
		[]byte(`[]`),
		[]byte(`{"k":0,"terms":[{"attr":"a","num":1}]}`),
		[]byte(`{"k":3,"terms":[]}`),
		[]byte(`{"k":3,"terms":[{"attr":"a"}]}`),
		[]byte(`{"k":3,"terms":[{"attr":"a","num":1,"text":"b"}]}`),
		[]byte(`{"k":3,"terms":[{"attr":"a","num":1}],"unknown":true}`),
		[]byte(`{"k":3,"terms":[{"attr":"a","num":1}]} trailing`),
		[]byte(`{"k":3,"terms":[{"attr":"a","num":1},{"attr":"a","num":2}]}`),
	}
	for i, body := range bad {
		resp, got := doSearch(t, ts, "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %d: HTTP %d, want 400: %s", i, resp.StatusCode, got)
		}
	}
	if got := be.calls.Load(); got != 0 {
		t.Fatalf("bad requests reached the backend: %d calls", got)
	}
	if v := metricValue(t, srv.MetricsText(), "iva_server_admitted_total", `tenant="default"`); v != 0 {
		t.Fatalf("bad requests counted as admitted: %v", v)
	}
	if resp, _ := ts.Client().Get(ts.URL + "/v1/search"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestFloodRealStore floods a real disk-backed store through HTTP with a
// tight concurrency cap, then proves the serving layer leaked nothing: the
// pool-pin gauge reads zero, the admission gauges read zero, and a final
// query still answers byte-identically to the in-process path.
func TestFloodRealStore(t *testing.T) {
	s, err := iva.Create(t.TempDir(), iva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedStore(t, 21, 300, s.Insert, s.Sync)

	srv, ts := newTestServer(t, s, Config{
		MaxConcurrent:  2,
		MaxQueue:       4,
		DefaultTimeout: 5 * time.Second,
	})

	var wg sync.WaitGroup
	var ok, shed, other atomic.Int64
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"k":5,"terms":[{"attr":"num_0001","num":%d}]}`, 50+i))
			switch trySearch(ts, "", body) {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("flood produced unexpected statuses (ok=%d shed=%d other=%d)", ok.Load(), shed.Load(), other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("flood: no request succeeded")
	}

	// Pool pins must all be returned once the flood settles — a pinned frame
	// held past its query would starve the CLOCK pool permanently.
	pinRe := regexp.MustCompile(`(?m)^iva_pool_pinned_frames(?:\{[^}]*\})? (\S+)$`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for _, m := range pinRe.FindAllStringSubmatch(s.MetricsText(), -1) {
			if m[1] != "0" {
				clean = false
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool pins leaked after flood:\n%s", pinRe.FindAllString(s.MetricsText(), -1))
		}
		time.Sleep(time.Millisecond)
	}
	text := srv.MetricsText()
	if v := metricValue(t, text, "iva_server_inflight", `tenant="default"`); v != 0 {
		t.Fatalf("inflight gauge leaked: %v", v)
	}
	if v := metricValue(t, text, "iva_server_queue_depth", `tenant="default"`); v != 0 {
		t.Fatalf("queue gauge leaked: %v", v)
	}

	// The store still serves byte-identical answers.
	checkEquivalence(t, s, 21, 300, 5)
}
