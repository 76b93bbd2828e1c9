package storage

import (
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used when a Pool is created with size 0.
const DefaultPageSize = 4096

// minShardQuota is the smallest per-shard page quota worth striping for.
// Pools too small to give every shard this many pages collapse to fewer
// shards (down to one), so tiny test pools keep exact single-ring semantics.
const minShardQuota = 8

// Pool is a shared buffer pool over one or more paged files. The paper's
// experiments run with one 10 MB cache shared by the index file and the
// table file; a single Pool instance plays that role here.
//
// Internally the pool is striped: pages hash onto nextPow2(GOMAXPROCS×4)
// shards, each with its own lock and a CLOCK (second-chance) eviction ring,
// so parallel filter workers never serialize on one mutex (the PR-2 striped
// search made the old global-mutex LRU the scalability ceiling). The
// pool-wide byte budget is kept as per-shard page quotas; the remainder of
// the division, plus any pages a shard is forced to hold beyond its quota
// because every resident frame is pinned, are tracked in small atomic
// counters (spare / overflow).
//
// Pages are write-through: write updates both the device and the cached
// frame, so a crash between Sync calls loses no committed page (the store
// above provides checkpoint consistency, not WAL recovery; see DESIGN.md §6).
//
// Frames can be pinned (Get / Frame.Release): a pinned frame is never
// evicted and its bytes never change — a write to a pinned page detaches the
// old frame (copy-on-write) and installs a fresh one, so pinned readers keep
// a page-consistent snapshot. ChainBitReader and table.Record decode straight
// from pinned frames instead of copying.
//
// An unpinned frame that leaves its shard's ring — evicted, or dropped with
// its file — becomes the shard's free frame, inside the shard's page budget,
// and the next miss reads into it: a miss on a full shard allocates nothing.
// One is all a shard keeps (a miss takes it, the eviction that makes room
// leaves the next), so a dropped file's memory goes back to the collector. A
// frame detached while pinned is never recycled: its readers may hold it.
type Pool struct {
	pageSize int
	capPages int
	stats    *Stats

	shards []*poolShard
	mask   uint64 // len(shards)-1; shard count is a power of two

	// files is copy-on-write: a page touch resolves its file with one atomic
	// load; Register and Unregister, serialized by filesMu, publish a new map.
	filesMu sync.Mutex
	files   atomic.Pointer[map[uint32]*fileState]
	next    uint32

	spare    atomic.Int64 // unassigned page quota shards may claim
	overflow atomic.Int64 // resident ring pages beyond the byte budget
	detached atomic.Int64 // live copy-on-write / invalidated frames still pinned
	pinned   atomic.Int64 // outstanding pins (a quiesced pool must read 0)
	lockWait atomic.Int64 // contended shard-lock acquisitions
}

type pageKey struct {
	file uint32
	page int64
}

// Frame is one pinned buffer-pool page. Data stays valid and immutable until
// Release: writers never mutate a pinned frame in place (copy-on-write), and
// a pinned frame is exempt from eviction.
type Frame struct {
	key   pageKey
	shard *poolShard
	data  []byte

	// Guarded by shard.mu.
	pins  int32
	ref   bool // CLOCK reference bit
	stale bool // detached from the shard (evict-on-release)
}

// Data returns the frame's page bytes. Valid until Release.
func (f *Frame) Data() []byte { return f.data }

// Release unpins the frame. The frame's bytes must not be used afterwards.
func (f *Frame) Release() {
	sh := f.shard
	p := sh.pool
	sh.lock()
	f.pins--
	if f.pins < 0 {
		sh.unlock()
		panic("storage: Frame released more times than pinned")
	}
	p.pinned.Add(-1)
	if f.pins == 0 && f.stale {
		p.detached.Add(-1)
	} else if f.pins == 0 {
		// If the shard ran past its quota while this pin blocked eviction,
		// shrink back toward budget now that a frame is evictable.
		for sh.over > 0 && sh.evictOneLocked() {
		}
	}
	sh.unlock()
}

type poolShard struct {
	pool  *Pool
	quota int // base page quota from the pool budget

	mu     sync.Mutex
	frames map[pageKey]*Frame
	ring   []*Frame // CLOCK ring; hand walks it circularly
	free   *Frame   // the free list, one frame long: unowned, inside the budget
	hand   int
	extra  int // pages claimed from pool.spare
	over   int // resident pages beyond quota+extra (pin-forced)

	scratch []byte // page image of a partial write in flight (see write)
}

// lock acquires the shard mutex, counting contended acquisitions so the
// iva_pool_shard_lock_wait_total metric tracks striping effectiveness.
func (sh *poolShard) lock() {
	if sh.mu.TryLock() {
		return
	}
	sh.pool.lockWait.Add(1)
	sh.mu.Lock()
}

func (sh *poolShard) unlock() { sh.mu.Unlock() }

type fileState struct {
	dev      Device
	lastRead atomic.Int64 // last physically read page, -1 initially
	gone     atomic.Bool  // set by Unregister; bars late inserts
	stats    *Stats
}

// NewPool returns a pool with the given page size and total cache capacity
// in bytes. Zero values select DefaultPageSize and 10 MiB. The shard count
// is nextPow2(GOMAXPROCS×4), lowered until every shard owns at least
// minShardQuota pages.
func NewPool(pageSize int, capBytes int64) *Pool {
	return NewPoolShards(pageSize, capBytes, 0)
}

// NewPoolShards is NewPool with an explicit shard count (rounded up to a
// power of two; 0 selects the automatic count). A single shard reproduces
// the old global-lock pool's behavior exactly — benchmarks use it as the
// contention baseline.
func NewPoolShards(pageSize int, capBytes int64, shards int) *Pool {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if capBytes <= 0 {
		capBytes = 10 << 20
	}
	capPages := int(capBytes / int64(pageSize))
	if capPages < 4 {
		capPages = 4
	}
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 4
	}
	n = 1 << bits.Len(uint(n-1)) // the next power of two
	for n > 1 && capPages/n < minShardQuota {
		n >>= 1
	}
	p := &Pool{
		pageSize: pageSize,
		capPages: capPages,
		stats:    &Stats{},
		shards:   make([]*poolShard, n),
		mask:     uint64(n - 1),
	}
	p.files.Store(&map[uint32]*fileState{})
	quota := capPages / n
	p.spare.Store(int64(capPages - quota*n))
	for i := range p.shards {
		p.shards[i] = &poolShard{
			pool:   p,
			quota:  quota,
			frames: make(map[pageKey]*Frame),
		}
	}
	return p
}

// shardOf maps a page key onto its shard with a splitmix-style mix so that
// sequential pages of one file spread across shards.
func (p *Pool) shardOf(key pageKey) *poolShard {
	h := uint64(key.page)*0xBF58476D1CE4E5B9 ^ (uint64(key.file)+1)*0x94D049BB133111EB
	h ^= h >> 31
	return p.shards[h&p.mask]
}

// PageSize returns the pool's page size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// CapPages returns the pool's byte budget in pages.
func (p *Pool) CapPages() int { return p.capPages }

// ShardCount returns the number of lock stripes.
func (p *Pool) ShardCount() int { return len(p.shards) }

// Stats returns the pool's I/O counters.
func (p *Pool) Stats() *Stats { return p.stats }

// Register attaches a device to the pool and returns its file handle id.
func (p *Pool) Register(dev Device) uint32 {
	fs := &fileState{dev: dev, stats: &Stats{}}
	fs.lastRead.Store(-1)
	p.filesMu.Lock()
	defer p.filesMu.Unlock()
	id := p.next
	p.next++
	p.publishFile(id, fs)
	return id
}

// publishFile replaces the file table by a copy in which id maps to fs, or to
// nothing for a nil fs. Caller holds filesMu.
func (p *Pool) publishFile(id uint32, fs *fileState) {
	files := maps.Clone(*p.files.Load())
	delete(files, id)
	if fs != nil {
		files[id] = fs
	}
	p.files.Store(&files)
}

// Files reports how many files are registered: a store that opens files for
// a rebuild and fails must be back at the count it started from.
func (p *Pool) Files() int { return len(*p.files.Load()) }

// fileState resolves a registered file, or nil.
func (p *Pool) fileState(id uint32) *fileState { return (*p.files.Load())[id] }

// FileStats returns the per-file I/O counters of a registered file, or nil if
// the id is unknown. The pointer stays valid (and frozen) after Unregister.
// Query plans use per-file deltas to attribute filter I/O (index file) and
// refine I/O (table file) exactly, even with several workers reading pages
// concurrently.
func (p *Pool) FileStats(id uint32) *Stats {
	if fs := p.fileState(id); fs != nil {
		return fs.stats
	}
	return nil
}

// Unregister detaches a device, dropping its cached pages across all shards.
// The device is not closed. Pinned frames of the file are detached, not
// freed: their readers keep a stable snapshot until Release.
func (p *Pool) Unregister(id uint32) {
	p.filesMu.Lock()
	fs := p.fileState(id)
	p.publishFile(id, nil)
	p.filesMu.Unlock()
	if fs != nil {
		fs.gone.Store(true)
	}
	p.dropFilePages(id)
}

// InvalidateFile drops all cached pages of the file (used after rebuilds
// that rewrite a device wholesale).
func (p *Pool) InvalidateFile(id uint32) {
	p.dropFilePages(id)
	if fs := p.fileState(id); fs != nil {
		fs.lastRead.Store(-1)
	}
}

// dropFilePages sweeps every shard, filtering the file's frames out of the
// ring in one pass. A pinned frame stays alive (stale, counted in detached)
// until its last Release. Shards are locked one at a time; the pool never
// holds two shard locks at once.
func (p *Pool) dropFilePages(id uint32) {
	for _, sh := range p.shards {
		sh.lock()
		kept, hand := sh.ring[:0], 0
		for i, fr := range sh.ring {
			if i == sh.hand {
				hand = len(kept)
			}
			if fr.key.file != id {
				kept = append(kept, fr)
				continue
			}
			delete(sh.frames, fr.key)
			if fr.pins > 0 {
				fr.stale = true
				p.detached.Add(1)
			} else {
				sh.free = fr
			}
		}
		clear(sh.ring[len(kept):])
		sh.ring, sh.hand = kept, hand%max(len(kept), 1)
		sh.syncBudgetLocked()
		sh.unlock()
	}
}

// ringRemoveLocked takes the frame in ring slot i out of the shard.
func (sh *poolShard) ringRemoveLocked(i int) *Frame {
	fr, last := sh.ring[i], len(sh.ring)-1
	delete(sh.frames, fr.key)
	sh.ring[i] = sh.ring[last]
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
	if sh.hand >= last {
		sh.hand = 0
	}
	return fr
}

// syncBudgetLocked reconciles the shard with its page budget after the ring
// or the free frame changed: the free frame stays only where the resident
// pages leave the budget room for it, and the over-budget count (with the
// pool's atomic overflow total) follows the ring occupancy.
func (sh *poolShard) syncBudgetLocked() {
	room := sh.quota + sh.extra - len(sh.ring)
	if room <= 0 {
		sh.free = nil
	}
	if over := max(-room, 0); over != sh.over {
		sh.pool.overflow.Add(int64(over - sh.over))
		sh.over = over
	}
}

// evictOneLocked runs the CLOCK hand: skip pinned frames, give referenced
// frames a second chance, free the first unpinned unreferenced frame. Two
// full sweeps guarantee progress when any frame is evictable.
func (sh *poolShard) evictOneLocked() bool {
	n := len(sh.ring)
	for i := 0; i < 2*n; i++ {
		fr := sh.ring[sh.hand]
		if fr.pins == 0 && !fr.ref {
			sh.free = sh.ringRemoveLocked(sh.hand)
			sh.syncBudgetLocked()
			return true
		}
		if fr.pins == 0 {
			fr.ref = false
		}
		sh.hand = (sh.hand + 1) % n
	}
	return false
}

// takeFrameLocked hands out an unowned frame for page key, its bytes
// undefined: the free frame — on a full shard the victim just evicted — else a
// new one, which runs the shard over budget when every frame is pinned and no
// spare quota page is left (counted in the overflow gauge at installLocked).
func (sh *poolShard) takeFrameLocked(key pageKey) *Frame {
	for sh.free == nil && len(sh.ring) >= sh.quota+sh.extra {
		if sh.evictOneLocked() {
			continue // the victim is free, unless the shard is still over budget
		}
		if !sh.pool.takeSpare() {
			break
		}
		sh.extra++
	}
	fr := sh.free
	if fr == nil {
		fr = &Frame{data: make([]byte, sh.pool.pageSize)}
	}
	sh.free = nil
	*fr = Frame{key: key, shard: sh, data: fr.data, ref: true}
	return fr
}

// installLocked makes a taken frame the resident frame of its page.
func (sh *poolShard) installLocked(fr *Frame) {
	sh.frames[fr.key] = fr
	sh.ring = append(sh.ring, fr)
	sh.syncBudgetLocked()
}

func (p *Pool) takeSpare() bool {
	for {
		v := p.spare.Load()
		if v <= 0 {
			return false
		}
		if p.spare.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// loadLocked reads page `key.page` from the device straight into the frame
// that will hold it and installs it. On a failed device read no frame is
// inserted, no counter moves, and the file's read-position is not advanced (a
// failed miss must not promote the key or skew the seq/near/rand
// classification — see TestPoolFailedRead*): the frame is free again.
func (sh *poolShard) loadLocked(fs *fileState, key pageKey) (*Frame, error) {
	p := sh.pool
	fr := sh.takeFrameLocked(key)
	_, err := fs.dev.ReadAt(fr.data, key.page*int64(p.pageSize))
	if err == nil && fs.gone.Load() {
		// Unregistered while we were reading: serve nothing rather than
		// resurrect a page the sweep may already have dropped.
		err = fmt.Errorf("storage: unknown file %d", key.file)
	}
	if err != nil {
		sh.free = fr
		sh.syncBudgetLocked()
		return nil, err
	}
	c := classifyRead(fs.lastRead.Swap(key.page), key.page)
	p.stats.recordRead(c)
	fs.stats.recordRead(c)
	sh.installLocked(fr)
	return fr, nil
}

// enter resolves a page of a registered file to the file's state, the page's
// key and its shard, and locks the shard.
func (p *Pool) enter(id uint32, page int64) (*fileState, pageKey, *poolShard, error) {
	fs := p.fileState(id)
	if fs == nil {
		return nil, pageKey{}, nil, fmt.Errorf("storage: unknown file %d", id)
	}
	key := pageKey{id, page}
	sh := p.shardOf(key)
	sh.lock()
	return fs, key, sh, nil
}

// touchLocked is the one lookup-or-load: the resident frame of the page,
// counted as a hit, or the page loaded from the device; referenced either way.
func (sh *poolShard) touchLocked(fs *fileState, key pageKey) (*Frame, error) {
	fr, ok := sh.frames[key]
	if !ok {
		return sh.loadLocked(fs, key)
	}
	sh.pool.stats.recordHit()
	fs.stats.recordHit()
	fr.ref = true
	return fr, nil
}

// Get returns the frame of page `page` of file `id`, pinned. The caller must
// Release it; until then the frame's bytes are stable (writes to the page
// install a fresh frame instead of mutating a pinned one) and the frame is
// exempt from eviction.
func (p *Pool) Get(id uint32, page int64) (*Frame, error) {
	fs, key, sh, err := p.enter(id, page)
	if err != nil {
		return nil, err
	}
	defer sh.unlock()
	fr, err := sh.touchLocked(fs, key)
	if err != nil {
		return nil, err
	}
	fr.pins++
	p.pinned.Add(1)
	return fr, nil
}

// readInto copies the bytes of page `page` of file `id` starting at in-page
// offset `in` into dst, returning the number of bytes copied. The single
// copy runs under the page's shard lock, so a concurrent write to the
// same page can never tear it — this is what makes Search safe against
// concurrent updates.
func (p *Pool) readInto(id uint32, page int64, in int, dst []byte) (int, error) {
	fs, key, sh, err := p.enter(id, page)
	if err != nil {
		return 0, err
	}
	defer sh.unlock()
	fr, err := sh.touchLocked(fs, key)
	if err != nil {
		return 0, err
	}
	return copy(dst, fr.data[in:]), nil
}

// write stores data at in-page offset `in` of page `page` of file `id` and
// writes the page through to the device. A whole page is written as given; a
// partial one is patched over the resident frame (loaded first on a miss,
// which counts as the read it is) — the page image is assembled in the
// shard's scratch page, so a sub-page write allocates and re-reads nothing.
// If the resident frame is pinned, it is detached and another frame installed
// (copy-on-write), so pinned readers keep their snapshot; an unpinned frame
// is updated in place.
func (p *Pool) write(id uint32, page int64, in int, data []byte) error {
	if in < 0 || in+len(data) > p.pageSize {
		return fmt.Errorf("storage: write of %d bytes at offset %d, page size %d", len(data), in, p.pageSize)
	}
	fs, key, sh, err := p.enter(id, page)
	if err != nil {
		return err
	}
	defer sh.unlock()
	fr, img := sh.frames[key], data
	if len(data) < p.pageSize {
		if fr, err = sh.touchLocked(fs, key); err != nil {
			return err
		}
		if sh.scratch == nil {
			sh.scratch = make([]byte, p.pageSize)
		}
		img = sh.scratch
		copy(img, fr.data)
		copy(img[in:], data)
	}
	// Device first, under the shard lock: a failed write leaves the cache
	// untouched, and two racing writers cannot publish device and cache
	// states in opposite orders.
	if _, err := fs.dev.WriteAt(img, page*int64(p.pageSize)); err != nil {
		return err
	}
	p.stats.recordWrite()
	fs.stats.recordWrite()
	if fr != nil {
		if fr.pins == 0 {
			copy(fr.data[in:], data)
			fr.ref = true
			return nil
		}
		// Copy-on-write: the pinned frame stays alive, stale and counted in
		// detached, until its last Release.
		for i := range sh.ring {
			if sh.ring[i] == fr {
				sh.ringRemoveLocked(i)
				break
			}
		}
		fr.stale = true
		p.detached.Add(1)
	}
	fr = sh.takeFrameLocked(key)
	copy(fr.data, img)
	sh.installLocked(fr)
	return nil
}

// CachedPages reports the number of pages currently resident in rings
// (detached pinned frames excluded).
func (p *Pool) CachedPages() int {
	n := 0
	for i := range p.shards {
		n += p.ShardResident(i)
	}
	return n
}

// ShardResident reports the resident page count of one shard.
func (p *Pool) ShardResident(i int) int {
	sh := p.shards[i]
	sh.lock()
	defer sh.unlock()
	return len(sh.ring)
}

// PinnedFrames reports the number of outstanding pins. A quiesced pool must
// read 0; a stuck nonzero value is a pin leak.
func (p *Pool) PinnedFrames() int64 { return p.pinned.Load() }

// OverflowPages reports how many pages the pool holds beyond its byte
// budget: ring pages pins forced past the quota, plus detached
// (copy-on-write or invalidated) frames still held by pinned readers. It is
// bounded by the number of outstanding pins and returns to 0 as they are
// released.
func (p *Pool) OverflowPages() int64 { return p.overflow.Load() + p.detached.Load() }

// LockWaits reports how many shard-lock acquisitions found the lock already
// held — the pool's contention signal.
func (p *Pool) LockWaits() int64 { return p.lockWait.Load() }
