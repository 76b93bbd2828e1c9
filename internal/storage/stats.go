package storage

import (
	"fmt"
	"sync/atomic"

	"github.com/sparsewide/iva/internal/obs"
)

// Stats accumulates physical I/O counters for a buffer pool or a single file
// attached to one. The paper's evaluation reasons about two classes of disk
// work — sequential scanning of index lists and random accesses into the
// table file — so physical page reads are classified by whether they continue
// the previous read position of the same file.
//
// All counters are atomics: parallel filter workers read pages concurrently,
// and query plans snapshot per-file counters before and after each phase to
// attribute I/O without stopping the world.
type Stats struct {
	physReads  atomic.Int64 // pages read from the device
	physWrites atomic.Int64 // pages written to the device
	cacheHits  atomic.Int64 // page requests served by the pool
	seqReads   atomic.Int64 // physical reads continuing the previous page+1
	nearReads  atomic.Int64 // short forward jumps (track-to-track, no full seek)
	randReads  atomic.Int64 // physical reads requiring a full positioning seek
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	PhysReads  int64
	PhysWrites int64
	CacheHits  int64
	SeqReads   int64
	NearReads  int64
	RandReads  int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		PhysReads:  s.physReads.Load(),
		PhysWrites: s.physWrites.Load(),
		CacheHits:  s.cacheHits.Load(),
		SeqReads:   s.seqReads.Load(),
		NearReads:  s.nearReads.Load(),
		RandReads:  s.randReads.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.physReads.Store(0)
	s.physWrites.Store(0)
	s.cacheHits.Store(0)
	s.seqReads.Store(0)
	s.nearReads.Store(0)
	s.randReads.Store(0)
}

// readClass classifies a physical read by its distance from the previous
// physical read of the same file.
type readClass uint8

const (
	readSeq readClass = iota
	readNear
	readRand
)

// nearWindow is the forward distance (in pages) still priced as a short
// positioning move rather than a full average seek. 256 pages = 1 MiB at
// the default page size, roughly one 2009-era disk track group.
const nearWindow = 256

func classifyRead(lastPage, page int64) readClass {
	switch d := page - lastPage; {
	case d == 1:
		return readSeq
	case d > 1 && d <= nearWindow:
		return readNear
	default:
		return readRand
	}
}

func (s *Stats) recordRead(c readClass) {
	s.physReads.Add(1)
	switch c {
	case readSeq:
		s.seqReads.Add(1)
	case readNear:
		s.nearReads.Add(1)
	default:
		s.randReads.Add(1)
	}
}

func (s *Stats) recordWrite() { s.physWrites.Add(1) }

func (s *Stats) recordHit() { s.cacheHits.Add(1) }

// Sub returns the delta a−b, counter-wise.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		PhysReads:  a.PhysReads - b.PhysReads,
		PhysWrites: a.PhysWrites - b.PhysWrites,
		CacheHits:  a.CacheHits - b.CacheHits,
		SeqReads:   a.SeqReads - b.SeqReads,
		NearReads:  a.NearReads - b.NearReads,
		RandReads:  a.RandReads - b.RandReads,
	}
}

// HitRate returns the fraction of page requests served by the cache.
func (a Snapshot) HitRate() float64 {
	total := a.CacheHits + a.PhysReads
	if total == 0 {
		return 0
	}
	return float64(a.CacheHits) / float64(total)
}

// Add returns the counter-wise sum a+b.
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		PhysReads:  a.PhysReads + b.PhysReads,
		PhysWrites: a.PhysWrites + b.PhysWrites,
		CacheHits:  a.CacheHits + b.CacheHits,
		SeqReads:   a.SeqReads + b.SeqReads,
		NearReads:  a.NearReads + b.NearReads,
		RandReads:  a.RandReads + b.RandReads,
	}
}

func (a Snapshot) String() string {
	return fmt.Sprintf("reads=%d (seq=%d near=%d rand=%d) writes=%d hits=%d",
		a.PhysReads, a.SeqReads, a.NearReads, a.RandReads, a.PhysWrites, a.CacheHits)
}

// DiskModel prices physical I/O so that experiments report times with the
// shape of the paper's 2009 HDD testbed regardless of the machine the
// reproduction runs on. A random page read pays a full positioning cost, a
// near read (short forward jump, e.g. the next tuple a few pages ahead
// during a tid-ordered fetch run) pays a track-to-track move, and a
// sequential page read pays only the transfer.
type DiskModel struct {
	RandomMS   float64 // full positioning + transfer
	NearMS     float64 // short forward move + transfer
	SeqMS      float64 // transfer only
	WriteMS    float64 // cost per page write
	CacheHitMS float64 // in-memory page lookup cost (usually ~0)
}

// DefaultDiskModel approximates a 2009-era 7200 rpm disk: ~8 ms average
// positioning, ~1 ms track-to-track, ~80 MB/s sequential transfer
// (≈0.05 ms per 4 KiB page).
func DefaultDiskModel() DiskModel {
	return DiskModel{RandomMS: 8.0, NearMS: 1.0, SeqMS: 0.05, WriteMS: 0.1, CacheHitMS: 0}
}

// CostMS returns the modeled milliseconds for the I/O in the snapshot.
func (m DiskModel) CostMS(s Snapshot) float64 {
	return float64(s.RandReads)*m.RandomMS +
		float64(s.NearReads)*m.NearMS +
		float64(s.SeqReads)*m.SeqMS +
		float64(s.PhysWrites)*m.WriteMS +
		float64(s.CacheHits)*m.CacheHitMS
}

// RegisterPoolMetrics exposes a pool's I/O counters in a metrics registry:
// physical reads by the paper's seq/near/rand access classes (their sum is
// every physical read), writes, cache hits, resident pages per shard, and the
// modeled disk cost of all I/O so far under m. Counters are read live at
// exposition time.
func (p *Pool) RegisterPoolMetrics(r *obs.Registry, m DiskModel) {
	st := p.Stats()
	r.CounterFunc("iva_io_phys_writes_total", "Physical page writes to the device.",
		nil, func() float64 { return float64(st.Snapshot().PhysWrites) })
	r.CounterFunc("iva_io_cache_hits_total", "Page requests served by the buffer pool.",
		nil, func() float64 { return float64(st.Snapshot().CacheHits) })
	for class, get := range map[string]func(Snapshot) int64{
		"seq":  func(s Snapshot) int64 { return s.SeqReads },
		"near": func(s Snapshot) int64 { return s.NearReads },
		"rand": func(s Snapshot) int64 { return s.RandReads },
	} {
		get := get
		r.CounterFunc("iva_io_reads_total", "Physical page reads from the device, by access class (seq, near, rand).",
			obs.Labels{"class": class}, func() float64 { return float64(get(st.Snapshot())) })
	}
	r.GaugeFunc("iva_io_modeled_cost_ms", "Modeled disk milliseconds of all I/O so far (2009-HDD cost model).",
		nil, func() float64 { return m.CostMS(st.Snapshot()) })
	r.CounterFunc("iva_pool_shard_lock_wait_total", "Contended shard-lock acquisitions (striping effectiveness).",
		nil, func() float64 { return float64(p.LockWaits()) })
	r.GaugeFunc("iva_pool_pinned_frames", "Outstanding page pins; nonzero at quiesce is a pin leak.",
		nil, func() float64 { return float64(p.PinnedFrames()) })
	r.GaugeFunc("iva_pool_overflow_pages", "Pages held beyond the byte budget because pins block eviction.",
		nil, func() float64 { return float64(p.OverflowPages()) })
	for i := 0; i < p.ShardCount(); i++ {
		i := i
		r.GaugeFunc("iva_pool_shard_resident_pages", "Pages resident per pool shard.",
			obs.Labels{"pool_shard": fmt.Sprint(i)}, func() float64 { return float64(p.ShardResident(i)) })
	}
}
