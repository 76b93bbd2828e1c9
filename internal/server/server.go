// Package server is the network query service over an iVA-file store: an
// HTTP JSON search API (POST /v1/search, /v1/get, /v1/stats) running over a
// Store through the SearchContext deadline lifecycle, with
// per-tenant admission control in front — token-bucket quotas, concurrency
// limits, a bounded deadline-aware admission queue that sheds with 429 +
// Retry-After, and graceful drain for shutdown.
//
// The serving-path contract is the equivalence battery's invariant: an
// answer served over HTTP is byte-identical to the same query's in-process
// Search answer, whatever the admission configuration — admission only
// decides WHETHER a query runs, never WHAT it returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/obs"
)

// Backend is the store surface the server runs over. *iva.Store satisfies
// it; the interface is the seam where tests and the benchmark substitute
// wrappers around one.
type Backend interface {
	SearchContext(ctx context.Context, q *iva.Query) ([]iva.Result, iva.QueryStats, error)
	Get(tid iva.TID) (iva.Row, error)
	Stats() iva.StoreStats
}

// TenantHeader names the request header carrying the tenant id. Requests
// without it belong to the default tenant.
const TenantHeader = "X-Iva-Tenant"

// defaultTenant names the tenant of requests without a tenant header.
const defaultTenant = "default"

// maxTimeout clamps client-requested deadlines.
const maxTimeout = 30 * time.Second

// Config tunes the server's admission control. The zero value serves with no
// quotas, a 2×GOMAXPROCS concurrency cap per tenant and sane deadlines.
type Config struct {
	// QPS is each tenant's sustained request quota (token-bucket refill
	// rate); Burst is the bucket capacity. QPS 0 disables quotas; Burst 0
	// defaults to max(1, ceil(QPS)).
	QPS   float64
	Burst int
	// MaxConcurrent caps each tenant's concurrently executing searches.
	// Default 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds each tenant's admission queue: searches beyond the
	// concurrency cap wait here until a slot frees or their deadline
	// expires; arrivals past the bound shed immediately. Default
	// 4×MaxConcurrent.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client sets no
	// timeout_ms (default 2s); a client's own deadline is clamped to
	// maxTimeout.
	DefaultTimeout time.Duration
	// Now overrides the clock, for tests and benches. Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Burst <= 0 && c.QPS > 0 {
		c.Burst = int(c.QPS + 0.999)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the query service: mount it with Register, drain it with Drain.
type Server struct {
	be  Backend
	cfg Config
	reg *obs.Registry

	now func() time.Time

	tmu     sync.Mutex
	tenants map[string]*tenant

	draining atomic.Bool
	active   atomic.Int64 // data-plane requests currently inside a handler

	dur   map[string]*obs.Histogram // per endpoint
	cmu   sync.Mutex
	codes map[string]*obs.Counter // endpoint+code → requests counter
}

// New builds a server over be. Server metric families register into reg; a
// nil reg gets a private registry (exposed by WriteMetrics either way).
func New(be Backend, reg *obs.Registry, cfg Config) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		be:      be,
		cfg:     cfg.withDefaults(),
		reg:     reg,
		tenants: make(map[string]*tenant),
		codes:   make(map[string]*obs.Counter),
		dur:     make(map[string]*obs.Histogram, 3),
	}
	s.now = s.cfg.Now
	for _, ep := range []string{"search", "get", "stats", "repl"} {
		s.dur[ep] = reg.Histogram("iva_server_request_duration_seconds",
			"End-to-end request latency at the HTTP surface, by endpoint.",
			obs.Labels{"endpoint": ep}, nil)
	}
	reg.GaugeFunc("iva_server_draining", "1 while the server drains for shutdown (new data-plane requests shed with 503).", nil, func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("iva_server_active_requests", "Data-plane requests currently inside a handler (executing or queued).", nil, func() float64 {
		return float64(s.active.Load())
	})
	// Materialize the default tenant so its families expose from the start.
	s.tenantFor(defaultTenant)
	return s
}

func (s *Server) countRequest(endpoint string, code int) {
	key := endpoint + " " + strconv.Itoa(code)
	s.cmu.Lock()
	c, ok := s.codes[key]
	if !ok {
		c = s.reg.Counter("iva_server_requests_total", "Requests served at the HTTP surface, by endpoint and status code.",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
		s.codes[key] = c
	}
	s.cmu.Unlock()
	c.Inc()
}

// Register mounts the service's endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/get", s.handleGet)
	mux.HandleFunc("/v1/stats", s.handleStats)
}

// WriteMetrics serializes the server's metric families in the Prometheus
// text exposition format. When the server shares the store's registry this
// duplicates the store families; with a private registry, append it to the
// store's exposition (families are disjoint, so concatenation is valid).
func (s *Server) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }

// MetricsText returns WriteMetrics output as a string.
func (s *Server) MetricsText() string { return s.reg.Text() }

// Drain sheds all new data-plane requests (503 + Retry-After) and blocks
// until in-flight ones — executing or queued — have completed, or ctx
// expires. Safe to call more than once. `ivatool serve` calls it on
// SIGTERM/SIGINT before closing the listener, so a rolling restart never
// cuts a query mid-flight.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d requests still in flight: %w", s.active.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorBody is the JSON shape of every non-200 answer.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, reason, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Reason: reason})
	s.countRequest(endpoint, code)
}

func (s *Server) writeShed(w http.ResponseWriter, endpoint string, shed *shedError) {
	code := http.StatusTooManyRequests
	if shed.reason == ShedDraining {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfterSeconds()))
	s.writeError(w, endpoint, code, shed.reason, "request shed: "+shed.reason)
}

func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are out; nothing sound to do but count it.
		s.countRequest(endpoint, http.StatusInternalServerError)
		return
	}
	s.countRequest(endpoint, http.StatusOK)
}

// timeout resolves a request's deadline from its timeout_ms.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxTimeout {
		return maxTimeout
	}
	return d
}

// handleSearch answers POST /v1/search: decode → admission → SearchContext.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	const ep = "search"
	start := time.Now()
	defer func() { s.dur[ep].Observe(time.Since(start).Seconds()) }()
	if r.Method != http.MethodPost {
		s.writeError(w, ep, http.StatusMethodNotAllowed, "", "POST required")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	tn := s.tenantFor(r.Header.Get(TenantHeader))
	tn.requests.Inc()
	req, err := DecodeSearchRequest(r.Body)
	if err != nil {
		s.writeError(w, ep, http.StatusBadRequest, "", err.Error())
		return
	}
	// The request context cancels on client disconnect; the resolved
	// timeout caps the whole wait-plus-execute path.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	release, shed := s.admit(ctx, tn)
	if shed != nil {
		s.writeShed(w, ep, shed)
		return
	}
	defer release()

	res, stats, err := s.be.SearchContext(ctx, req.Query())
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The deadline expired mid-query (admission already sheds
			// pre-expired ones): the work is lost, report it as a timeout
			// rather than a shed.
			s.writeError(w, ep, http.StatusGatewayTimeout, "timeout", err.Error())
			return
		}
		s.writeError(w, ep, http.StatusInternalServerError, "", err.Error())
		return
	}
	s.writeJSON(w, ep, SearchResponse{
		TraceID: stats.TraceID,
		Results: Results(res),
		Stats: SearchStats{
			Scanned:          stats.Scanned,
			TableAccesses:    stats.TableAccesses,
			CacheHits:        stats.CacheHits,
			PhysReads:        stats.PhysReads,
			Workers:          stats.Workers,
			DegradedSegments: stats.DegradedSegments,
		},
	})
}

// GetResponse is the body of a successful /v1/get answer. Values render as
// {"num": x} or {"strs": [...]} per attribute.
type GetResponse struct {
	TID iva.TID             `json:"tid"`
	Row map[string]GetValue `json:"row"`
}

// GetValue is one attribute value of a /v1/get answer.
type GetValue struct {
	Num  *float64 `json:"num,omitempty"`
	Strs []string `json:"strs,omitempty"`
}

// handleGet answers GET /v1/get?tid=N: a primary-key row fetch. Get requests
// debit the tenant's quota but skip the concurrency queue — they are point
// reads, far cheaper than a search.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	const ep = "get"
	start := time.Now()
	defer func() { s.dur[ep].Observe(time.Since(start).Seconds()) }()
	if r.Method != http.MethodGet {
		s.writeError(w, ep, http.StatusMethodNotAllowed, "", "GET required")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	tn := s.tenantFor(r.Header.Get(TenantHeader))
	tn.requests.Inc()
	if s.draining.Load() {
		s.writeShed(w, ep, tn.shedAs(ShedDraining, time.Second))
		return
	}
	if ok, wait := tn.takeToken(s.now(), s.cfg.QPS, s.cfg.Burst); !ok {
		s.writeShed(w, ep, tn.shedAs(ShedQuota, wait))
		return
	}
	tidStr := r.URL.Query().Get("tid")
	tid64, err := strconv.ParseUint(tidStr, 10, 32)
	if err != nil {
		s.writeError(w, ep, http.StatusBadRequest, "", fmt.Sprintf("bad tid %q", tidStr))
		return
	}
	row, err := s.be.Get(iva.TID(tid64))
	if err != nil {
		if errors.Is(err, iva.ErrNotFound) {
			s.writeError(w, ep, http.StatusNotFound, "", err.Error())
			return
		}
		s.writeError(w, ep, http.StatusInternalServerError, "", err.Error())
		return
	}
	out := GetResponse{TID: iva.TID(tid64), Row: make(map[string]GetValue, len(row))}
	for name, v := range row {
		if v.Kind() == iva.Numeric {
			f := v.Float()
			out.Row[name] = GetValue{Num: &f}
		} else {
			out.Row[name] = GetValue{Strs: v.Texts()}
		}
	}
	s.writeJSON(w, ep, out)
}

// StatsResponse is the body of /v1/stats: the store's shape plus the
// server's own serving state.
type StatsResponse struct {
	Store  iva.StoreStats `json:"store"`
	Server struct {
		Tenants  int   `json:"tenants"`
		Draining bool  `json:"draining"`
		Active   int64 `json:"active_requests"`
	} `json:"server"`
	// Repl is present when the backend replicates (as primary or follower);
	// followers expose their lag here.
	Repl *iva.ReplStatus `json:"repl,omitempty"`
}

// handleStats answers GET /v1/stats. Stats stay served while draining so
// operators can watch a drain complete.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	const ep = "stats"
	start := time.Now()
	defer func() { s.dur[ep].Observe(time.Since(start).Seconds()) }()
	if r.Method != http.MethodGet {
		s.writeError(w, ep, http.StatusMethodNotAllowed, "", "GET required")
		return
	}
	var out StatsResponse
	out.Store = s.be.Stats()
	if rb, ok := s.be.(interface{ ReplStatus() iva.ReplStatus }); ok {
		if rs := rb.ReplStatus(); rs.Role != "none" {
			out.Repl = &rs
		}
	}
	s.tmu.Lock()
	out.Server.Tenants = len(s.tenants)
	s.tmu.Unlock()
	out.Server.Draining = s.draining.Load()
	out.Server.Active = s.active.Load()
	s.writeJSON(w, ep, out)
}
