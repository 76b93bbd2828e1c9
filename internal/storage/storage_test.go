package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestMemDeviceReadBeyondSize(t *testing.T) {
	d := NewMemDevice()
	if _, err := d.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 8)
	if _, err := d.ReadAt(p, 1); err != nil {
		t.Fatal(err)
	}
	want := []byte{2, 3, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(p, want) {
		t.Fatalf("got %v want %v", p, want)
	}
}

func TestMemDeviceSparseWrite(t *testing.T) {
	d := NewMemDevice()
	if _, err := d.WriteAt([]byte{9}, 100); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 101 {
		t.Fatalf("Size = %d, want 101", d.Size())
	}
	p := make([]byte, 2)
	d.ReadAt(p, 99)
	if p[0] != 0 || p[1] != 9 {
		t.Fatalf("got %v", p)
	}
}

func TestMemDeviceTruncate(t *testing.T) {
	d := NewMemDevice()
	d.WriteAt([]byte{1, 2, 3, 4}, 0)
	if err := d.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if err := d.Truncate(4); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	d.ReadAt(p, 0)
	if !bytes.Equal(p, []byte{1, 2, 0, 0}) {
		t.Fatalf("got %v", p)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt([]byte("hello world"), 3); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16)
	if _, err := d.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if string(p[3:14]) != "hello world" {
		t.Fatalf("got %q", p)
	}
	if d.Size() != 14 {
		t.Fatalf("Size = %d, want 14", d.Size())
	}
}

func TestFileDeviceReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteAt([]byte{7, 8, 9}, 0)
	d.Close()
	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Size() != 3 {
		t.Fatalf("reopened Size = %d", d2.Size())
	}
	p := make([]byte, 3)
	d2.ReadAt(p, 0)
	if !bytes.Equal(p, []byte{7, 8, 9}) {
		t.Fatalf("got %v", p)
	}
}

func TestPoolCachingAndStats(t *testing.T) {
	pool := NewPool(64, 64*8)
	dev := NewMemDevice()
	f := NewFile(pool, dev)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	pool.Stats().Reset()
	p := make([]byte, 256)
	if err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data) {
		t.Fatal("read mismatch")
	}
	s := pool.Stats().Snapshot()
	// All 4 pages were cached by the write-through, so reads must be hits.
	if s.PhysReads != 0 || s.CacheHits != 4 {
		t.Fatalf("stats = %+v, want 0 physical reads, 4 hits", s)
	}
}

func TestPoolEvictionLRU(t *testing.T) {
	pool := NewPool(64, 64*4) // capacity: 4 pages
	dev := NewMemDevice()
	f := NewFile(pool, dev)
	data := make([]byte, 64*8)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if pool.CachedPages() != 4 {
		t.Fatalf("CachedPages = %d, want 4", pool.CachedPages())
	}
	pool.Stats().Reset()
	// Page 0 was evicted; reading it must be a physical read.
	p := make([]byte, 64)
	if err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats().Snapshot()
	if s.PhysReads != 1 {
		t.Fatalf("PhysReads = %d, want 1", s.PhysReads)
	}
	if !bytes.Equal(p, data[:64]) {
		t.Fatal("evicted page content wrong after reload")
	}
}

func TestSequentialVsRandomClassification(t *testing.T) {
	pool := NewPool(64, 64*2) // tiny cache to force physical reads
	dev := NewMemDevice()
	f := NewFile(pool, dev)
	f.WriteAt(make([]byte, 64*10), 0)
	pool.InvalidateFile(f.id)
	pool.Stats().Reset()

	p := make([]byte, 64)
	// Sequential: pages 0,1,2,3.
	for page := int64(0); page < 4; page++ {
		f.ReadAt(p, page*64)
	}
	s := pool.Stats().Snapshot()
	// First read (page 0 after lastRead=-1) is sequential (0 == -1+1).
	if s.SeqReads != 4 || s.RandReads != 0 {
		t.Fatalf("sequential run: %+v", s)
	}
	pool.Stats().Reset()
	f.ReadAt(p, 9*64) // short forward jump: near
	f.ReadAt(p, 5*64) // backward jump: random
	s = pool.Stats().Snapshot()
	if s.NearReads != 1 || s.RandReads != 1 {
		t.Fatalf("jump run: %+v", s)
	}
}

func TestClassifyRead(t *testing.T) {
	cases := []struct {
		last, page int64
		want       readClass
	}{
		{-1, 0, readSeq},
		{10, 11, readSeq},
		{10, 12, readNear},
		{10, 10 + nearWindow, readNear},
		{10, 11 + nearWindow, readRand},
		{10, 10, readRand}, // reread after eviction: rotational wait
		{10, 3, readRand},  // backward
	}
	for _, c := range cases {
		if got := classifyRead(c.last, c.page); got != c.want {
			t.Errorf("classifyRead(%d,%d) = %d, want %d", c.last, c.page, got, c.want)
		}
	}
}

func TestFilePartialPageWrite(t *testing.T) {
	pool := NewPool(64, 1<<16)
	f := NewFile(pool, NewMemDevice())
	f.WriteAt([]byte("aaaaaaaa"), 0)
	f.WriteAt([]byte("bb"), 3)
	p := make([]byte, 8)
	f.ReadAt(p, 0)
	if string(p) != "aaabbaaa" {
		t.Fatalf("got %q", p)
	}
}

func TestFileAppend(t *testing.T) {
	pool := NewPool(64, 1<<16)
	f := NewFile(pool, NewMemDevice())
	off1, err := f.Append([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	off2, err := f.Append([]byte("defg"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 3 {
		t.Fatalf("offsets %d,%d", off1, off2)
	}
	if f.Size() != 7 {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestSegStoreChains(t *testing.T) {
	pool := NewPool(256, 1<<20)
	f := NewFile(pool, NewMemDevice())
	s := NewSegStore(f, 0)
	c1, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	// Interleave writes so the chains' segments interleave in the file.
	d1 := make([]byte, 200)
	d2 := make([]byte, 150)
	for i := range d1 {
		d1[i] = byte(i)
	}
	for i := range d2 {
		d2[i] = byte(255 - i)
	}
	if err := s.WriteAt(c1, d1[:100], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(c2, d2[:100], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(c1, d1[100:], 100); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(c2, d2[100:], 100); err != nil {
		t.Fatal(err)
	}
	got1 := make([]byte, 200)
	got2 := make([]byte, 150)
	if err := s.ReadAt(c1, got1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(c2, got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, d1) || !bytes.Equal(got2, d2) {
		t.Fatal("interleaved chain content mismatch")
	}
}

func TestSegStoreReload(t *testing.T) {
	pool := NewPool(256, 1<<20)
	dev := NewMemDevice()
	f := NewFile(pool, dev)
	s := NewSegStore(f, 0)
	c, _ := s.Create()
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly and at length")
	if err := s.WriteAt(c, data, 0); err != nil {
		t.Fatal(err)
	}
	// Re-open: a fresh SegStore over the same file must walk the chain.
	s2 := NewSegStore(f, 0)
	got := make([]byte, len(data))
	if err := s2.ReadAt(c, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if s2.alloc.pages != s.alloc.pages {
		t.Fatalf("segment spaces differ: %d vs %d pages", s2.alloc.pages, s.alloc.pages)
	}
}

// TestSegStoreChainLoop: a damaged next pointer that closes a loop must fail
// the chain walk, not spin it. Only page-size segments can loop — every other
// position demands a size of its own — so the chain is grown to three of them.
func TestSegStoreChainLoop(t *testing.T) {
	pool := NewPool(256, 1<<20)
	f := NewFile(pool, NewMemDevice())
	s := NewSegStore(f, 0)
	c, _ := s.Create()
	if err := s.WriteAt(c, make([]byte, segStart(segClasses+3)), 0); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ChainSegments(c)
	if err != nil || len(ids) != segClasses+3 {
		t.Fatalf("fixture chain: %v, %v", ids, err)
	}
	var hdr [SegHeaderLen]byte
	putSegHeader(hdr[:], ids[segClasses], segClasses)
	if err := f.WriteAt(hdr[:], s.SegmentOffset(ids[segClasses+2])); err != nil {
		t.Fatal(err)
	}
	s2 := NewSegStore(f, 0)
	if _, err := s2.ChainSegments(c); err == nil || !strings.Contains(err.Error(), "loops") {
		t.Fatalf("walk of a looping chain: %v", err)
	}
}

func TestSegStoreReadPastCapacity(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	p := make([]byte, segStart(1)+1)
	if err := s.ReadAt(c, p, 0); err == nil {
		t.Fatal("read past capacity succeeded")
	}
}

func TestChainBitRoundTrip(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()

	rng := rand.New(rand.NewSource(42))
	type field struct {
		v     uint64
		width int
	}
	var fields []field
	var bitLen int64
	// Append in several batches to exercise partial-byte merging.
	for batch := 0; batch < 20; batch++ {
		var buf []byte
		var nbits int
		var bw bitWriter
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			width := 1 + rng.Intn(64)
			v := rng.Uint64()
			if width < 64 {
				v &= 1<<width - 1
			}
			fields = append(fields, field{v, width})
			bw.writeBits(v, width)
		}
		buf, nbits = bw.buf, bw.n
		var err error
		bitLen, err = AppendBits(s, c, bitLen, buf, nbits)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	r := NewChainBitReader(s, c, bitLen)
	for i, fd := range fields {
		got, err := r.ReadBits(fd.width)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != fd.v {
			t.Fatalf("field %d: got %x want %x (width %d)", i, got, fd.v, fd.width)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits remain", r.Remaining())
	}
}

func TestChainBitReaderSeek(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	var bw bitWriter
	for i := 0; i < 100; i++ {
		bw.writeBits(uint64(i), 13)
	}
	bitLen, err := AppendBits(s, c, 0, bw.buf, bw.n)
	if err != nil {
		t.Fatal(err)
	}
	r := NewChainBitReader(s, c, bitLen)
	if err := r.SeekBit(13 * 57); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(13)
	if err != nil || v != 57 {
		t.Fatalf("v=%d err=%v, want 57", v, err)
	}
}

// bitWriter is a minimal MSB-first writer local to the tests (mirrors
// bitio.Writer without importing it, keeping this package's tests
// self-contained).
type bitWriter struct {
	buf []byte
	n   int
}

func (w *bitWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if w.n&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[len(w.buf)-1] |= 1 << (7 - uint(w.n&7))
		}
		w.n++
	}
}

func TestDiskModelCost(t *testing.T) {
	m := DefaultDiskModel()
	s := Snapshot{RandReads: 2, NearReads: 10, SeqReads: 100, PhysWrites: 1}
	got := m.CostMS(s)
	want := 2*8.0 + 10*1.0 + 100*0.05 + 1*0.1
	if got != want {
		t.Fatalf("CostMS = %v, want %v", got, want)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Snapshot{PhysReads: 10, SeqReads: 5, NearReads: 1, RandReads: 4, PhysWrites: 2, CacheHits: 100}
	b := Snapshot{PhysReads: 3, SeqReads: 2, RandReads: 1, PhysWrites: 1, CacheHits: 40}
	d := a.Sub(b)
	if d.PhysReads != 7 || d.SeqReads != 3 || d.NearReads != 1 || d.RandReads != 3 || d.PhysWrites != 1 || d.CacheHits != 60 {
		t.Fatalf("Sub = %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Fatalf("Add = %+v, want %+v", got, a)
	}
}

func TestPoolUnregisterDropsPages(t *testing.T) {
	pool := NewPool(64, 1<<16)
	f := NewFile(pool, NewMemDevice())
	f.WriteAt(make([]byte, 256), 0)
	if pool.CachedPages() == 0 {
		t.Fatal("expected cached pages")
	}
	pool.Unregister(f.id)
	if pool.CachedPages() != 0 {
		t.Fatalf("CachedPages = %d after Unregister", pool.CachedPages())
	}
}

func TestTruncateInvalidates(t *testing.T) {
	pool := NewPool(64, 1<<16)
	f := NewFile(pool, NewMemDevice())
	f.WriteAt(bytes.Repeat([]byte{0xEE}, 128), 0)
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	if err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatal("stale cached page after truncate")
		}
	}
}

// TestChecksumUpdateUint64 holds the allocation-free offset mix-in equal to
// ChecksumUpdate over the value's little-endian bytes.
func TestChecksumUpdateUint64(t *testing.T) {
	for _, v := range []uint64{0, 1, 64, 0xdeadbeef, 1<<40 - 1, ^uint64(0)} {
		for _, crc := range []uint32{0, Checksum([]byte("record")), ^uint32(0)} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			if got, want := ChecksumUpdateUint64(crc, v), ChecksumUpdate(crc, b[:]); got != want {
				t.Fatalf("ChecksumUpdateUint64(%#x, %#x) = %#x, want %#x", crc, v, got, want)
			}
		}
	}
}
