package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The pool invariant battery. A randomized concurrent workload (Get/Release,
// readInto, whole- and partial-page write, InvalidateFile, Unregister) runs
// against a model kept in plain Go maps, asserting the pool's contract the
// whole time:
//
//   - the byte budget is never exceeded beyond what outstanding pins force;
//   - a pinned frame's bytes never change (copy-on-write on writes), also
//     while evictions and drops recycle frames around it, and no page buffer
//     belongs to two live frames — resident, free or pinned;
//   - no read ever observes a torn page or a version the model never wrote;
//   - after Unregister, no page of the file is served;
//   - every pin is returned (PinnedFrames ends at 0) and the pool shrinks
//     back to budget (OverflowPages ends at 0);
//   - cache hits + physical reads add up to exactly the successful request
//     count — the accounting the query planner's I/O attribution rests on;
//     a partial-page write is one request (it reads the page it patches).
//
// Failures reproduce from one line, like the differential oracle:
//
//	go test ./internal/storage -run TestPoolInvariantProperty -pool.seed=N -pool.ops=M
var (
	poolSeed = flag.Int64("pool.seed", 0x9a7e5, "pool property workload seed to replay")
	poolOps  = flag.Int("pool.ops", 0, "pool property ops per worker (0 = default)")
)

const (
	propPageSize = 64
	propCapPages = 32
	propFiles    = 3
	propPages    = 96 // per file; 3× the budget so eviction never stops
)

func poolRepro(run string, ops int) string {
	return fmt.Sprintf("repro: go test ./internal/storage -run %s -pool.seed=%d -pool.ops=%d",
		run, *poolSeed, ops)
}

// propSplit cuts a page into two parts, [0,propSplit) and [propSplit,size),
// each versioned on its own so that a partial-page write has a committed
// state to produce. The cut is deliberately unaligned.
const propSplit = 24

// propPart returns part h of a page buffer.
func propPart(buf []byte, h int) []byte {
	if h == 0 {
		return buf[:propSplit]
	}
	return buf[propSplit:]
}

// fillPropPart writes the deterministic content of (file, page, part, ver):
// the version in the first 8 bytes, a splitmix stream keyed by all four
// after. Any mix of two versions in one part fails verification — that is the
// torn-read detector.
func fillPropPart(part []byte, file uint32, page int64, h int, ver int64) {
	binary.LittleEndian.PutUint64(part, uint64(ver))
	seed := uint64(file+1)*0x9E3779B97F4A7C15 ^ uint64(page)*0xBF58476D1CE4E5B9 ^ uint64(ver)*0x94D049BB133111EB ^ uint64(h)<<63
	for i := 8; i < len(part); i++ {
		x := seed + uint64(i)*0x2545F4914F6CDD1D
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		part[i] = byte(x >> 56)
	}
}

// fillPropPage writes both parts of a page at one version.
func fillPropPage(buf []byte, file uint32, page, ver int64) {
	for h := 0; h < 2; h++ {
		fillPropPart(propPart(buf, h), file, page, h, ver)
	}
}

// propVers reads the version each part of a page claims.
func propVers(buf []byte) [2]int64 {
	return [2]int64{
		int64(binary.LittleEndian.Uint64(propPart(buf, 0))),
		int64(binary.LittleEndian.Uint64(propPart(buf, 1))),
	}
}

// checkPropPage verifies each part of buf is exactly one committed version
// (whichever version its header claims), i.e. untorn.
func checkPropPage(buf []byte, file uint32, page int64) error {
	vers := propVers(buf)
	for h := 0; h < 2; h++ {
		part := propPart(buf, h)
		want := make([]byte, len(part))
		fillPropPart(want, file, page, h, vers[h])
		if !bytes.Equal(part, want) {
			return fmt.Errorf("file %d page %d part %d: torn or corrupt content (header claims ver %d)", file, page, h, vers[h])
		}
	}
	return nil
}

// propModel is the reference state: the committed version of both parts of
// every page, guarded per page so writers serialize with the verified-read op
// without serializing the whole workload.
type propModel struct {
	pages [propFiles][propPages]struct {
		mu  sync.Mutex
		ver [2]int64
	}
}

type poolPropConfig struct {
	seed     int64
	opsPer   int // per worker; 0 with a deadline means run until deadline
	workers  int
	deadline time.Duration // 0 = ops-bounded
	faults   bool          // wrap devices in FaultDevice and cycle budgets
	run      string        // test name for the repro line
}

// firstErr records the first failure from any goroutine.
type firstErr struct {
	once sync.Once
	err  atomic.Pointer[error]
}

func (f *firstErr) set(err error) {
	f.once.Do(func() { f.err.Store(&err) })
}

func (f *firstErr) get() error {
	if p := f.err.Load(); p != nil {
		return *p
	}
	return nil
}

// checkFrames is the recycling half of the model, one shard at a time under
// its lock: ring and map hold the same frames under their own keys, the free
// frame is unpinned, out of the map and inside the budget, and no two of them
// — nor held, a frame some worker has pinned — share a page buffer.
func (p *Pool) checkFrames(held *Frame) error {
	for i, sh := range p.shards {
		sh.lock()
		err := func() error {
			owner := make(map[*byte]*Frame, len(sh.ring)+2)
			if held != nil && held.shard == sh {
				owner[&held.data[0]] = held
			}
			claim := func(fr *Frame) error {
				if len(fr.data) != p.pageSize {
					return fmt.Errorf("shard %d: frame of page %v has a %d-byte buffer", i, fr.key, len(fr.data))
				}
				if o := owner[&fr.data[0]]; o != nil && o != fr {
					return fmt.Errorf("shard %d: pages %v and %v share one buffer", i, o.key, fr.key)
				}
				owner[&fr.data[0]] = fr
				return nil
			}
			if len(sh.frames) != len(sh.ring) {
				return fmt.Errorf("shard %d: %d mapped frames, %d in the ring", i, len(sh.frames), len(sh.ring))
			}
			for _, fr := range sh.ring {
				if sh.frames[fr.key] != fr || fr.stale || fr.shard != sh {
					return fmt.Errorf("shard %d: ring frame of page %v is stale, foreign or not the mapped one", i, fr.key)
				}
				if err := claim(fr); err != nil {
					return err
				}
			}
			if fr := sh.free; fr != nil {
				if fr.pins != 0 || sh.frames[fr.key] == fr {
					return fmt.Errorf("shard %d: free frame (last page %v) is pinned (%d) or still mapped", i, fr.key, fr.pins)
				}
				if len(sh.ring) >= sh.quota+sh.extra {
					return fmt.Errorf("shard %d: a free frame beside %d resident pages, budget %d", i, len(sh.ring), sh.quota+sh.extra)
				}
				return claim(fr)
			}
			return nil
		}()
		sh.unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func runPoolProp(t *testing.T, cfg poolPropConfig) {
	t.Helper()
	p := NewPoolShards(propPageSize, propPageSize*propCapPages, 4)
	if p.ShardCount() != 4 {
		t.Fatalf("want 4 shards for the property pool, got %d", p.ShardCount())
	}

	mems := make([]*MemDevice, propFiles)
	faults := make([]*FaultDevice, propFiles)
	ids := make([]uint32, propFiles)
	model := &propModel{}
	buf := make([]byte, propPageSize)
	for f := 0; f < propFiles; f++ {
		mems[f] = NewMemDevice()
		for pg := int64(0); pg < propPages; pg++ {
			fillPropPage(buf, uint32(f), pg, 0)
			if _, err := mems[f].WriteAt(buf, pg*propPageSize); err != nil {
				t.Fatal(err)
			}
		}
		var dev Device = mems[f]
		if cfg.faults {
			faults[f] = NewFaultDevice(mems[f], -1)
			dev = faults[f]
		}
		ids[f] = p.Register(dev)
		if ids[f] != uint32(f) {
			t.Fatalf("file ids not dense: got %d want %d", ids[f], f)
		}
	}

	var (
		fail     firstErr
		requests atomic.Int64 // successful Get/readInto/partial-write calls
		unsure   atomic.Int64 // failed partial writes: the page request may have been counted
		done     = make(chan struct{})
		deadline time.Time
	)
	if cfg.deadline > 0 {
		deadline = time.Now().Add(cfg.deadline)
	}

	// Budget sampler: the ring population may exceed the page budget only by
	// what pins force (≤ one pin per worker at a time), plus sampling skew
	// from reading the shards one lock at a time.
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		limit := p.CapPages() + 2*cfg.workers + 2
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := p.CachedPages(); n > limit {
				fail.set(fmt.Errorf("budget invariant: %d resident pages, limit %d (cap %d, %d workers)",
					n, limit, p.CapPages(), cfg.workers))
				return
			}
			if err := p.checkFrames(nil); err != nil {
				fail.set(err)
				return
			}
			runtime.Gosched()
		}
	}()

	worker := func(w int) error {
		r := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
		scratch := make([]byte, propPageSize)
		for op := 0; ; op++ {
			if cfg.opsPer > 0 && op >= cfg.opsPer {
				return nil
			}
			if cfg.opsPer == 0 && (op&63) == 0 && time.Now().After(deadline) {
				return nil
			}
			if fail.get() != nil {
				return nil
			}
			f := r.Intn(propFiles)
			pg := int64(r.Intn(propPages))
			switch c := r.Intn(100); {
			case c < 40: // pinned read: verify untorn, prove snapshot immutability
				fr, err := p.Get(ids[f], pg)
				if err != nil {
					if cfg.faults && errors.Is(err, ErrInjected) {
						continue
					}
					return fmt.Errorf("op %d Get(%d,%d): %v", op, f, pg, err)
				}
				requests.Add(1)
				if err := checkPropPage(fr.Data(), uint32(f), pg); err != nil {
					fr.Release()
					return fmt.Errorf("op %d: %v", op, err)
				}
				if c < 8 { // hold the pin while the shards are churned past their quota
					copy(scratch, fr.Data())
					for i := 0; i < 2*propCapPages; i++ {
						g, err := p.Get(ids[(f+i)%propFiles], int64(r.Intn(propPages)))
						if err == nil {
							requests.Add(1)
							g.Release()
						} else if !(cfg.faults && errors.Is(err, ErrInjected)) {
							fr.Release()
							return fmt.Errorf("op %d churn Get: %v", op, err)
						}
						if i == propCapPages {
							p.InvalidateFile(ids[(f+1)%propFiles])
						}
					}
					err := p.checkFrames(fr)
					if err == nil && !bytes.Equal(scratch, fr.Data()) {
						err = fmt.Errorf("pinned frame of file %d page %d mutated under the pin", f, pg)
					}
					if err != nil {
						fr.Release()
						return fmt.Errorf("op %d: %v", op, err)
					}
				}
				fr.Release()
			case c < 60: // copying read
				n, err := p.readInto(ids[f], pg, 0, scratch)
				if err != nil {
					if cfg.faults && errors.Is(err, ErrInjected) {
						continue
					}
					return fmt.Errorf("op %d readInto(%d,%d): %v", op, f, pg, err)
				}
				requests.Add(1)
				if n != propPageSize {
					return fmt.Errorf("op %d readInto(%d,%d): short copy %d", op, f, pg, n)
				}
				if err := checkPropPage(scratch, uint32(f), pg); err != nil {
					return fmt.Errorf("op %d: %v", op, err)
				}
			case c < 72: // write the next version of the whole page
				slot := &model.pages[f][pg]
				slot.mu.Lock()
				next := max(slot.ver[0], slot.ver[1]) + 1
				data := make([]byte, propPageSize)
				fillPropPage(data, uint32(f), pg, next)
				err := p.write(ids[f], pg, 0, data)
				if err == nil {
					slot.ver = [2]int64{next, next}
				}
				slot.mu.Unlock()
				if err != nil && !(cfg.faults && errors.Is(err, ErrInjected)) {
					return fmt.Errorf("op %d write(%d,%d): %v", op, f, pg, err)
				}
			case c < 80: // patch the next version of one part over the resident page
				h := c & 1
				slot := &model.pages[f][pg]
				slot.mu.Lock()
				part := propPart(make([]byte, propPageSize), h)
				fillPropPart(part, uint32(f), pg, h, slot.ver[h]+1)
				err := p.write(ids[f], pg, h*propSplit, part)
				if err == nil {
					slot.ver[h]++
					requests.Add(1)
				} else {
					unsure.Add(1)
				}
				slot.mu.Unlock()
				if err != nil && !(cfg.faults && errors.Is(err, ErrInjected)) {
					return fmt.Errorf("op %d partial write(%d,%d,%d): %v", op, f, pg, h, err)
				}
			case c < 95: // read-your-writes: under the page lock, the exact model version
				slot := &model.pages[f][pg]
				slot.mu.Lock()
				fr, err := p.Get(ids[f], pg)
				if err == nil {
					requests.Add(1)
					if got := propVers(fr.Data()); got != slot.ver {
						err = fmt.Errorf("op %d: file %d page %d served ver %v, model has %v", op, f, pg, got, slot.ver)
						fr.Release()
						slot.mu.Unlock()
						return err
					}
					fr.Release()
				}
				slot.mu.Unlock()
				if err != nil && !(cfg.faults && errors.Is(err, ErrInjected)) {
					return fmt.Errorf("op %d Get(%d,%d): %v", op, f, pg, err)
				}
			default: // drop the file's cache; later reads must reload from the device
				p.InvalidateFile(ids[f])
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := worker(w); err != nil {
				fail.set(err)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	samplerWG.Wait()

	ops := cfg.opsPer
	if err := fail.get(); err != nil {
		t.Fatalf("%v\n  %s", err, poolRepro(cfg.run, ops))
	}
	if cfg.faults {
		for _, fd := range faults {
			fd.Reset(-1)
		}
	}

	// Quiesced invariants.
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("pin leak: %d frames still pinned after the workload\n  %s", n, poolRepro(cfg.run, ops))
	}
	if n := p.OverflowPages(); n != 0 {
		t.Fatalf("%d overflow pages with no pins outstanding\n  %s", n, poolRepro(cfg.run, ops))
	}
	if n := p.CachedPages(); n > p.CapPages() {
		t.Fatalf("quiesced pool holds %d pages, budget %d\n  %s", n, p.CapPages(), poolRepro(cfg.run, ops))
	}
	snap := p.Stats().Snapshot()
	// A partial write whose device write failed has already made its page
	// request; only the fault runs have any.
	if got, lo := snap.CacheHits+snap.PhysReads, requests.Load(); got < lo || got > lo+unsure.Load() {
		t.Fatalf("accounting drift: %d hits + %d physical reads, %d successful requests (+%d failed partial writes)\n  %s",
			snap.CacheHits, snap.PhysReads, lo, unsure.Load(), poolRepro(cfg.run, ops))
	}
	if snap.SeqReads+snap.NearReads+snap.RandReads != snap.PhysReads {
		t.Fatalf("read classes sum to %d, physical reads %d\n  %s",
			snap.SeqReads+snap.NearReads+snap.RandReads, snap.PhysReads, poolRepro(cfg.run, ops))
	}

	// Every page must have converged to its committed model version.
	for f := 0; f < propFiles; f++ {
		for pg := int64(0); pg < propPages; pg++ {
			fr, err := p.Get(ids[f], pg)
			if err != nil {
				t.Fatalf("final verify Get(%d,%d): %v\n  %s", f, pg, err, poolRepro(cfg.run, ops))
			}
			got := propVers(fr.Data())
			if want := model.pages[f][pg].ver; got != want {
				fr.Release()
				t.Fatalf("final verify: file %d page %d at ver %v, model committed %v\n  %s",
					f, pg, got, want, poolRepro(cfg.run, ops))
			}
			if err := checkPropPage(fr.Data(), uint32(f), pg); err != nil {
				fr.Release()
				t.Fatalf("final verify: %v\n  %s", err, poolRepro(cfg.run, ops))
			}
			fr.Release()
		}
	}

	// Unregister: the file disappears atomically; its stats pointer stays
	// valid but frozen.
	frozen := p.FileStats(ids[0]).Snapshot()
	p.Unregister(ids[0])
	if _, err := p.Get(ids[0], 0); err == nil {
		t.Fatalf("Get served a page of an unregistered file\n  %s", poolRepro(cfg.run, ops))
	}
	if got := p.FileStats(ids[0]); got != nil {
		t.Fatalf("FileStats of an unregistered file should be nil, got %+v", got.Snapshot())
	}
	_ = frozen
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("pins after unregister: %d", n)
	}
}

func propOps(def int) int {
	if *poolOps > 0 {
		return *poolOps
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

func TestPoolInvariantProperty(t *testing.T) {
	runPoolProp(t, poolPropConfig{
		seed:    *poolSeed,
		opsPer:  propOps(4000),
		workers: 8,
		run:     "TestPoolInvariantProperty",
	})
}

// TestPoolSoak is the time-bounded variant for -race CI runs: duration comes
// from IVA_POOL_SOAK_MS (default 1s, 250ms under -short).
func TestPoolSoak(t *testing.T) {
	ms := 1000
	if testing.Short() {
		ms = 250
	}
	if v := os.Getenv("IVA_POOL_SOAK_MS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("IVA_POOL_SOAK_MS=%q: %v", v, err)
		}
		ms = n
	}
	runPoolProp(t, poolPropConfig{
		seed:     *poolSeed + 1,
		workers:  8,
		deadline: time.Duration(ms) * time.Millisecond,
		run:      "TestPoolSoak",
	})
}

// TestPoolFaultSoak interleaves injected device failures with the concurrent
// workload: a chaos goroutine keeps re-arming every device with small random
// budgets, so misses and write-throughs fail mid-flight while other workers
// evict, pin and invalidate. The pool must degrade to clean errors — no torn
// pages, no phantom cache entries, every invariant of the quiesced pool
// intact once the devices are healed.
func TestPoolFaultSoak(t *testing.T) {
	runPoolProp(t, poolPropConfig{
		seed:    *poolSeed + 2,
		opsPer:  propOps(3000),
		workers: 8,
		faults:  true,
		run:     "TestPoolFaultSoak",
	})
}

// captureDevice records the destination buffer of the last ReadAt, so a test
// can prove the pool reads misses straight into the cached frame.
type captureDevice struct {
	*MemDevice
	last []byte
}

func (d *captureDevice) ReadAt(p []byte, off int64) (int, error) {
	d.last = p
	return d.MemDevice.ReadAt(p, off)
}

// TestPoolMissReadsIntoFrame pins the regression fix for the miss double
// copy: the buffer handed to the device IS the frame that gets cached and
// pinned, with no staging copy in between.
func TestPoolMissReadsIntoFrame(t *testing.T) {
	dev := &captureDevice{MemDevice: NewMemDevice()}
	data := bytes.Repeat([]byte{0xAB}, 128)
	if _, err := dev.MemDevice.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	p := NewPoolShards(128, 128*4, 1)
	id := p.Register(dev)
	fr, err := p.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	if dev.last == nil {
		t.Fatal("device never saw a read")
	}
	if &fr.Data()[0] != &dev.last[0] {
		t.Fatal("miss was staged through a scratch buffer instead of reading into the frame")
	}
}

// TestPoolFailedReadNoSideEffects pins the failed-read regression: an
// errored miss must not cache a frame, must not move any counter, and must
// not advance the file's read position — the old pool "promoted" the failed
// page, so the next successful read was misclassified as random.
func TestPoolFailedReadNoSideEffects(t *testing.T) {
	mem := NewMemDevice()
	buf := make([]byte, 64)
	for pg := int64(0); pg < 16; pg++ {
		fillPropPage(buf, 0, pg, 0)
		if _, err := mem.WriteAt(buf, pg*64); err != nil {
			t.Fatal(err)
		}
	}
	fd := NewFaultDevice(mem, -1)
	p := NewPoolShards(64, 64*8, 1)
	id := p.Register(fd)

	// Establish a read position: pages 0 then 1 (the second is sequential).
	for pg := int64(0); pg <= 1; pg++ {
		fr, err := p.Get(id, pg)
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	before := p.Stats().Snapshot()
	cached := p.CachedPages()

	fd.Trip()
	if _, err := p.Get(id, 9); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get on a tripped device: err=%v, want ErrInjected", err)
	}
	if _, err := p.readInto(id, 10, 0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("readInto on a tripped device: err=%v, want ErrInjected", err)
	}
	after := p.Stats().Snapshot()
	if after != before {
		t.Fatalf("failed reads moved counters: before %+v, after %+v", before, after)
	}
	if got := p.CachedPages(); got != cached {
		t.Fatalf("failed reads changed residency: %d -> %d pages", cached, got)
	}

	// The read position must still be page 1: page 2 is a sequential read.
	// Had the failed page 9 been promoted, this would classify as random.
	fd.Reset(-1)
	fr, err := p.Get(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
	final := p.Stats().Snapshot()
	if final.SeqReads != before.SeqReads+1 {
		t.Fatalf("read after failure classified wrong: seq %d -> %d (rand %d -> %d); failed read promoted the position",
			before.SeqReads, final.SeqReads, before.RandReads, final.RandReads)
	}
}

// TestPoolWriteCopyOnWrite: writing a pinned page must leave the pinned
// snapshot untouched and serve the new bytes to the next reader; writing an
// unpinned page updates the frame in place without a device read.
func TestPoolWriteCopyOnWrite(t *testing.T) {
	mem := NewMemDevice()
	old := bytes.Repeat([]byte{0x11}, 64)
	if _, err := mem.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	p := NewPoolShards(64, 64*4, 1)
	id := p.Register(mem)

	fr, err := p.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), fr.Data()...)

	neu := bytes.Repeat([]byte{0x22}, 64)
	if err := p.write(id, 0, 0, neu); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Data(), snapshot) {
		t.Fatal("write mutated a pinned frame in place")
	}
	if p.OverflowPages() != 1 {
		t.Fatalf("detached frame not counted: OverflowPages=%d, want 1", p.OverflowPages())
	}

	fr2, err := p.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr2.Data(), neu) {
		t.Fatal("reader after the write still sees the old bytes")
	}
	readsAfterCOW := p.Stats().Snapshot().PhysReads
	fr.Release()
	if p.OverflowPages() != 0 {
		t.Fatalf("OverflowPages=%d after releasing the stale pin, want 0", p.OverflowPages())
	}

	// Unpinned in-place update: no new frame, no device read.
	fr2.Release()
	neu2 := bytes.Repeat([]byte{0x33}, 64)
	if err := p.write(id, 0, 0, neu2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr2.Data(), neu2) {
		t.Fatal("unpinned write did not update the resident frame in place")
	}
	fr3, err := p.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr3.Release()
	if !bytes.Equal(fr3.Data(), neu2) {
		t.Fatal("read after in-place write sees stale bytes")
	}
	if got := p.Stats().Snapshot().PhysReads; got != readsAfterCOW {
		t.Fatalf("in-place write path touched the device for reads: %d -> %d", readsAfterCOW, got)
	}
}

// TestPoolPartialWrite pins the sub-page write rules: the page is patched
// over the resident frame (loaded first on a miss, one request either way),
// the device gets the whole patched page before the cache changes, a pinned
// frame is replaced instead of patched, and a resident unpinned page costs no
// allocation.
func TestPoolPartialWrite(t *testing.T) {
	mem := NewMemDevice()
	if _, err := mem.WriteAt(bytes.Repeat([]byte{0x11}, 128), 0); err != nil {
		t.Fatal(err)
	}
	fd := NewFaultDevice(mem, -1)
	p := NewPoolShards(64, 64*4, 1)
	id := p.Register(fd)
	want := bytes.Repeat([]byte{0x11}, 64)
	devPage := func() []byte {
		b := make([]byte, 64)
		mem.ReadAt(b, 0)
		return b
	}
	cached := func() []byte {
		t.Helper()
		before := p.Stats().Snapshot().PhysReads
		fr, err := p.Get(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Release()
		if p.Stats().Snapshot().PhysReads != before {
			t.Fatal("page 0 was not resident")
		}
		return append([]byte(nil), fr.Data()...)
	}

	// Miss: one physical read, one physical write of the whole patched page.
	copy(want[8:], bytes.Repeat([]byte{0x22}, 16))
	if err := p.write(id, 0, 8, want[8:24]); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats().Snapshot(); s.PhysReads != 1 || s.CacheHits != 0 || s.PhysWrites != 1 {
		t.Fatalf("partial write on a miss: %+v, want 1 read, 0 hits, 1 write", s)
	}
	if !bytes.Equal(devPage(), want) || !bytes.Equal(cached(), want) {
		t.Fatal("partial write on a miss: device or cache does not hold the patched page")
	}

	// Hit, unpinned: patched in place, no read, no allocation.
	before := p.Stats().Snapshot()
	copy(want[40:], bytes.Repeat([]byte{0x33}, 8))
	if n := testing.AllocsPerRun(10, func() {
		if err := p.write(id, 0, 40, want[40:48]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("partial write to a resident page allocates %v times", n)
	}
	if d := p.Stats().Snapshot().Sub(before); d.PhysReads != 0 || d.CacheHits != d.PhysWrites {
		t.Fatalf("partial writes on a hit: %+v, want one hit per write and no read", d)
	}
	if !bytes.Equal(devPage(), want) || !bytes.Equal(cached(), want) {
		t.Fatal("partial write on a hit: device or cache does not hold the patched page")
	}

	// Pinned: the snapshot stays, the next reader sees old bytes + patch.
	fr, err := p.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), fr.Data()...)
	copy(want[60:], []byte{0x44, 0x44, 0x44, 0x44})
	if err := p.write(id, 0, 60, want[60:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Data(), snapshot) {
		t.Fatal("partial write mutated a pinned frame in place")
	}
	if p.OverflowPages() != 1 {
		t.Fatalf("detached frame not counted: OverflowPages=%d, want 1", p.OverflowPages())
	}
	if !bytes.Equal(devPage(), want) || !bytes.Equal(cached(), want) {
		t.Fatal("partial write under a pin: device or cache does not hold the patched page")
	}
	fr.Release()
	if p.OverflowPages() != 0 || p.PinnedFrames() != 0 {
		t.Fatalf("after release: overflow %d, pinned %d", p.OverflowPages(), p.PinnedFrames())
	}

	// A failed device write — clean or torn — leaves the cache untouched.
	for _, torn := range []bool{false, true} {
		fd.Reset(0)
		fd.SetTornWrites(torn)
		if err := p.write(id, 0, 0, bytes.Repeat([]byte{0x55}, 48)); !errors.Is(err, ErrInjected) {
			t.Fatalf("torn=%v: err=%v, want ErrInjected", torn, err)
		}
		if !bytes.Equal(cached(), want) {
			t.Fatalf("torn=%v: failed partial write changed the cached page", torn)
		}
		if got := devPage(); torn == bytes.Equal(got, want) {
			t.Fatalf("torn=%v: device page %x", torn, got)
		}
	}

	// A failed load on a miss changes nothing at all.
	fd.Reset(0)
	fd.SetTornWrites(false)
	before, resident := p.Stats().Snapshot(), p.CachedPages()
	if err := p.write(id, 1, 4, []byte{1, 2, 3}); !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write over an unreadable page: err=%v, want ErrInjected", err)
	}
	if after := p.Stats().Snapshot(); after != before || p.CachedPages() != resident {
		t.Fatalf("failed load moved counters or residency: %+v -> %+v", before, after)
	}
	if err := p.write(id, 0, 60, make([]byte, 5)); err == nil {
		t.Fatal("write past the page end accepted")
	}
}

// TestPoolPinForcedOverflow: when every resident frame is pinned the pool
// must keep serving (running over budget, visibly in OverflowPages) and
// shrink back once pins are released.
func TestPoolPinForcedOverflow(t *testing.T) {
	mem := NewMemDevice()
	if _, err := mem.WriteAt(make([]byte, 64*16), 0); err != nil {
		t.Fatal(err)
	}
	p := NewPoolShards(64, 64*4, 1)
	id := p.Register(mem)

	var frames []*Frame
	for pg := int64(0); pg < 6; pg++ { // 2 past the 4-page budget
		fr, err := p.Get(id, pg)
		if err != nil {
			t.Fatalf("page %d with all frames pinned: %v", pg, err)
		}
		frames = append(frames, fr)
	}
	if got := p.CachedPages(); got != 6 {
		t.Fatalf("resident %d, want 6 (pins must force overflow, not eviction)", got)
	}
	if got := p.OverflowPages(); got != 2 {
		t.Fatalf("OverflowPages=%d, want 2", got)
	}
	for _, fr := range frames {
		fr.Release()
	}
	if got := p.OverflowPages(); got != 0 {
		t.Fatalf("OverflowPages=%d after releasing all pins, want 0", got)
	}
	if got := p.CachedPages(); got > p.CapPages() {
		t.Fatalf("resident %d after release, budget %d", got, p.CapPages())
	}
	if got := p.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames=%d, want 0", got)
	}
}

// TestPoolShardSpread sanity-checks the shard hash: sequential pages of one
// file must not all land in one stripe.
func TestPoolShardSpread(t *testing.T) {
	p := NewPoolShards(DefaultPageSize, int64(DefaultPageSize)*minShardQuota*4, 4)
	if p.ShardCount() != 4 {
		t.Skipf("pool collapsed to %d shards", p.ShardCount())
	}
	counts := make(map[*poolShard]int)
	for pg := int64(0); pg < 64; pg++ {
		counts[p.shardOf(pageKey{file: 0, page: pg})]++
	}
	for sh, n := range counts {
		if n > 32 {
			t.Fatalf("shard %p took %d of 64 sequential pages", sh, n)
		}
	}
	if len(counts) < 3 {
		t.Fatalf("64 sequential pages hit only %d shards", len(counts))
	}
}

// missLoop returns a one-shard pool of capPages pages, filled, over a device
// of twice as many, and a function that touches the next page of a cyclic
// scan: on a CLOCK ring half the size of the cycle every touch is a miss.
func missLoop(tb testing.TB, capPages int) (*Pool, func()) {
	mem := NewMemDevice()
	if _, err := mem.WriteAt(make([]byte, 2*capPages*propPageSize), 0); err != nil {
		tb.Fatal(err)
	}
	p := NewPoolShards(propPageSize, int64(capPages*propPageSize), 1)
	id := p.Register(mem)
	next := int64(0)
	touch := func() {
		fr, err := p.Get(id, next)
		if err != nil {
			tb.Fatal(err)
		}
		fr.Release()
		next = (next + 1) % int64(2*capPages)
	}
	for i := 0; i < 2*capPages; i++ {
		touch()
	}
	return p, touch
}

// TestPoolMissAllocs is the allocation gate of the miss path: on a full shard
// a miss reads into the frame its eviction freed — nothing is allocated,
// whatever the size of the ring. (Under the race detector only the equality
// is asserted, like the other allocation gates.)
func TestPoolMissAllocs(t *testing.T) {
	allocs := func(capPages int) float64 {
		p, touch := missLoop(t, capPages)
		before := p.Stats().Snapshot()
		n := testing.AllocsPerRun(500, touch)
		if d := p.Stats().Snapshot().Sub(before); d.PhysReads != 501 || d.CacheHits != 0 {
			t.Fatalf("%d-page pool: %d physical reads and %d hits over 501 touches, want every touch a miss", capPages, d.PhysReads, d.CacheHits)
		}
		if got := p.CachedPages(); got != capPages {
			t.Fatalf("%d-page pool holds %d pages", capPages, got)
		}
		return n
	}
	small, large := allocs(8), allocs(256)
	if small != large {
		t.Errorf("allocations per miss depend on the ring: %v at 8 pages, %v at 256", small, large)
	}
	if !raceEnabled && large != 0 {
		t.Errorf("a miss on a full shard allocates %v times, want 0", large)
	}
}

// BenchmarkPoolMiss is one miss on a full shard: CLOCK eviction at the hand,
// the device read into the recycled frame, pin and release. 0 B/op.
func BenchmarkPoolMiss(b *testing.B) {
	_, touch := missLoop(b, 320) // a shard of the default 10 MiB pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch()
	}
}
