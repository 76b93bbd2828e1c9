package server

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva/internal/obs"
)

// Shed reasons, the `reason` label of iva_server_shed_total. Every shed
// answers 429 (503 while draining) with a Retry-After header, before any
// index work happens.
const (
	// ShedQuota: the tenant's token bucket is empty.
	ShedQuota = "quota"
	// ShedQueueFull: the tenant's admission queue is at capacity.
	ShedQueueFull = "queue_full"
	// ShedExpired: the request's deadline had already passed at admission.
	ShedExpired = "expired"
	// ShedDeadline: the deadline expired while waiting for an execution slot
	// — the request could not meet it, so no index work was started.
	ShedDeadline = "deadline"
	// ShedDraining: the server is draining for shutdown.
	ShedDraining = "draining"
)

// shedError describes one load-shedding decision.
type shedError struct {
	reason     string
	retryAfter time.Duration // rounded up to whole seconds on the wire
}

// tenant is one tenant's admission state: a token-bucket quota and a
// concurrency limit with a bounded FIFO-ish wait queue. Tenants are created
// on first use and live for the server's lifetime.
type tenant struct {
	name string

	// Token bucket (quota). Guarded by mu; tokens refill lazily at qps up to
	// burst. qps <= 0 disables the quota.
	mu     sync.Mutex
	tokens float64
	last   time.Time

	// Concurrency limit: slots is a semaphore of capacity MaxConcurrent;
	// queued bounds the waiters (admission queue depth).
	slots  chan struct{}
	queued atomic.Int64

	admitted *obs.Counter
	shed     map[string]*obs.Counter
	requests *obs.Counter
}

func (s *Server) newTenant(name string) *tenant {
	labels := obs.Labels{"tenant": name}
	tn := &tenant{
		name:     name,
		tokens:   float64(s.cfg.Burst),
		last:     s.now(),
		slots:    make(chan struct{}, s.cfg.MaxConcurrent),
		admitted: s.reg.Counter("iva_server_admitted_total", "Searches admitted past quota, queue and deadline checks, per tenant.", labels),
		requests: s.reg.Counter("iva_server_tenant_requests_total", "Data-plane requests received, per tenant.", labels),
		shed:     make(map[string]*obs.Counter, 5),
	}
	s.reg.GaugeFunc("iva_server_inflight", "Searches currently executing, per tenant.", labels,
		func() float64 { return float64(len(tn.slots)) })
	s.reg.GaugeFunc("iva_server_queue_depth", "Searches waiting in the admission queue, per tenant (one high while an arrival over the cap is shed).", labels,
		func() float64 { return float64(tn.queued.Load()) })
	for _, reason := range []string{ShedQuota, ShedQueueFull, ShedExpired, ShedDeadline, ShedDraining} {
		tn.shed[reason] = s.reg.Counter("iva_server_shed_total",
			"Requests shed by admission control before any index work, by tenant and reason.",
			obs.With(labels, "reason", reason))
	}
	return tn
}

// tenantFor returns the tenant for the given name, creating it on first use.
func (s *Server) tenantFor(name string) *tenant {
	if name == "" {
		name = defaultTenant
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	tn, ok := s.tenants[name]
	if !ok {
		tn = s.newTenant(name)
		s.tenants[name] = tn
	}
	return tn
}

// takeToken debits one token from the tenant's bucket, or reports how long
// until one will be available. A zero-or-negative QPS disables the quota.
func (tn *tenant) takeToken(now time.Time, qps float64, burst int) (ok bool, retryAfter time.Duration) {
	if qps <= 0 {
		return true, 0
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	elapsed := now.Sub(tn.last).Seconds()
	if elapsed > 0 {
		tn.tokens = math.Min(float64(burst), tn.tokens+elapsed*qps)
		tn.last = now
	}
	if tn.tokens >= 1 {
		tn.tokens--
		return true, 0
	}
	return false, time.Duration((1 - tn.tokens) / qps * float64(time.Second))
}

// admit runs the full admission pipeline for one search: drain check, quota,
// deadline, bounded queue, concurrency slot. On success it returns a release
// function the caller must invoke when the query finishes. On shedding it
// returns a non-nil shedError and records the decision in the tenant's shed
// counters.
func (s *Server) admit(ctx context.Context, tn *tenant) (release func(), shed *shedError) {
	if s.draining.Load() {
		return nil, tn.shedAs(ShedDraining, time.Second)
	}
	if ok, wait := tn.takeToken(s.now(), s.cfg.QPS, s.cfg.Burst); !ok {
		return nil, tn.shedAs(ShedQuota, wait)
	}
	// A request whose deadline has already passed can never be answered in
	// time: shed it before it costs a queue slot or any index work.
	if ctx.Err() != nil {
		return nil, tn.shedAs(ShedExpired, 0)
	}
	select {
	case tn.slots <- struct{}{}: // free slot, no queueing
	default:
		// All slots busy: wait in the bounded queue until a slot frees or
		// the deadline decides the request cannot be met.
		if tn.queued.Add(1) > int64(s.cfg.MaxQueue) {
			tn.queued.Add(-1)
			return nil, tn.shedAs(ShedQueueFull, time.Second)
		}
		select {
		case tn.slots <- struct{}{}:
			tn.queued.Add(-1)
		case <-ctx.Done():
			tn.queued.Add(-1)
			return nil, tn.shedAs(ShedDeadline, time.Second)
		}
	}
	tn.admitted.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-tn.slots
		})
	}, nil
}

func (tn *tenant) shedAs(reason string, retryAfter time.Duration) *shedError {
	tn.shed[reason].Inc()
	return &shedError{reason: reason, retryAfter: retryAfter}
}

// retryAfterSeconds renders a shed's backoff hint as whole seconds for the
// Retry-After header: sub-second waits round up to 1 so clients always back
// off a little; an expired-deadline shed may retry immediately (0).
func (e *shedError) retryAfterSeconds() int {
	if e.retryAfter <= 0 {
		return 0
	}
	secs := int(math.Ceil(e.retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
