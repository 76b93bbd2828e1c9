package iva

import (
	"context"
	"sync"

	"github.com/sparsewide/iva/internal/obs"
)

// Read-repair. A corrupt vector-list segment detected at query time
// (the degraded read lists it in QueryStats) or by a scrub is queued here; a
// background worker fetches the committed payload bytes from a replication
// peer, verifies them against the LOCAL committed checksum word — the wire
// adds no trust — and rewrites the segment in place. The next read serves it
// clean. If no peer has a matching copy the segment simply stays degraded:
// read-repair can only improve on the degraded-read floor, never fall below it.

// ReplPeer fetches raw bytes of a peer store's files; *repl.Client implements
// it over the /v1/repl/segment endpoint.
type ReplPeer interface {
	FetchFileRange(ctx context.Context, file string, off, n int64) ([]byte, error)
}

type repairer struct {
	s    *Store
	peer ReplPeer

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []uint32
	pending  map[uint32]struct{} // queued or in flight — dedupes re-detections
	inflight int
	closed   bool

	cancel context.CancelFunc
	done   chan struct{}

	attempts *obs.Counter
	repaired *obs.Counter
	failed   *obs.Counter
}

// SetRepairPeer configures the replication peer corrupt index segments are
// re-fetched from and starts the background repair worker. Calling it again
// swaps the peer; the queue survives the swap.
func (s *Store) SetRepairPeer(peer ReplPeer) {
	if peer == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.repairer; r != nil {
		r.mu.Lock()
		r.peer = peer
		r.mu.Unlock()
		return
	}
	r := &repairer{
		s:        s,
		peer:     peer,
		pending:  make(map[uint32]struct{}),
		done:     make(chan struct{}),
		attempts: s.reg.Counter("iva_readrepair_attempts_total", "Corrupt segments a peer re-fetch was attempted for.", nil),
		repaired: s.reg.Counter("iva_readrepair_repaired_total", "Corrupt segments healed in place from a peer.", nil),
		failed:   s.reg.Counter("iva_readrepair_failed_total", "Repair attempts that failed (peer unreachable, mismatched generation, or local refusal).", nil),
	}
	r.cond = sync.NewCond(&r.mu)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	s.repairer = r
	go r.run(ctx)
}

// enqueueRepair queues corrupt segment ids for peer repair. Non-blocking and
// cheap when no peer is configured; safe under any store lock.
func (s *Store) enqueueRepair(ids []uint32) {
	r := s.repairer
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, id := range ids {
		if _, dup := r.pending[id]; dup {
			continue
		}
		r.pending[id] = struct{}{}
		r.queue = append(r.queue, id)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// stopRepairer shuts the worker down and waits for it. Idempotent.
func (s *Store) stopRepairer() {
	s.mu.Lock()
	r := s.repairer
	s.mu.Unlock()
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.cond.Broadcast()
	<-r.done
}

// waitRepairs blocks until the repair queue is drained and no repair is in
// flight (test hook).
func (s *Store) waitRepairs() {
	r := s.repairer
	if r == nil {
		return
	}
	r.mu.Lock()
	for (len(r.queue) > 0 || r.inflight > 0) && !r.closed {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

func (r *repairer) run(ctx context.Context) {
	defer close(r.done)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		id := r.queue[0]
		r.queue = r.queue[1:]
		r.inflight++
		peer := r.peer
		r.mu.Unlock()

		r.repairOne(ctx, peer, id)

		r.mu.Lock()
		delete(r.pending, id)
		r.inflight--
		r.mu.Unlock()
		r.cond.Broadcast()
	}
}

// repairOne fetches and applies one segment. The engine pointer is captured
// briefly under the read lock but NOT held across the network fetch: a
// rebuild may swap the index mid-repair, in which case the write errors
// against the retired file and the attempt is simply counted failed — the
// rebuild already produced a clean segment anyway.
func (r *repairer) repairOne(ctx context.Context, peer ReplPeer, seg uint32) {
	r.attempts.Inc()
	s := r.s
	s.engineMu.RLock()
	ix := s.ix
	s.engineMu.RUnlock()
	off, n, ok := ix.SegmentSpan(seg)
	if !ok {
		r.failed.Inc()
		return
	}
	buf, err := peer.FetchFileRange(ctx, indexFileName, off, n)
	if err != nil {
		r.failed.Inc()
		return
	}
	if err := ix.RepairSegment(seg, buf); err != nil {
		r.failed.Inc()
		return
	}
	r.repaired.Inc()
}
