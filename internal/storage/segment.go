package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The iVA-file keeps one vector list per attribute plus a tuple list, and
// §IV-B appends new elements at each list's tail. A flat file cannot grow
// more than one region at its end, so lists are stored as chains of segments
// (extents): each segment carries a header pointing to the next segment of
// the same chain, and a chain exposes its payload bytes as one contiguous
// logical stream.
//
// A sparse wide table has a thousand lists most of which are a few hundred
// bytes, so segments are not one size: the k-th segment of every chain is
// min(128<<k, 4096) bytes — 128, 256, 512, 1024, 2048, then 4096 each. Size
// follows from position alone, so where a logical offset lives (SegAt) follows
// from the offset alone: a growing list is never copied and no per-chain state
// says how it is cut. Sub-page segments come from slab pages — a page holds
// segments of one size, naturally aligned, so none straddles a page — and
// short lists share pages.

// SegID identifies a segment within a SegStore: the index of its first
// 128-byte granule past the store's base. Segment 0 is valid; the sentinel
// NoSegment terminates a chain.
type SegID uint32

// NoSegment is the nil segment pointer.
const NoSegment SegID = 0xFFFFFFFF

// ChainID names a chain by its head segment.
type ChainID = SegID

const (
	// SegHeaderLen is the size of the header before a segment's payload:
	// next SegID (4 bytes), then the size byte and the magic (4 bytes).
	SegHeaderLen = 8

	segGranule = 128  // the SegID unit and the smallest segment
	segPage    = 4096 // the largest segment, and the size of a slab page
	segClasses = 5    // sub-page sizes: segGranule<<0 … segGranule<<4

	granulesPerPage = segPage / segGranule

	// SegMaxPayload is the payload size of the largest segment.
	SegMaxPayload = segPage - SegHeaderLen

	// segMagic fills the high three bytes of the header's second word ("SGM");
	// the low byte is the segment's size class, log2(size/segGranule).
	segMagic = 0x53474D00

	// SegGeometry is the word a superblock records so that Open can refuse a
	// file whose segments were cut by another rule.
	SegGeometry uint32 = segPage<<16 | segGranule
)

// segClass is the size class of a chain's k-th segment.
func segClass(k int) int { return min(k, segClasses) }

// segStart is the logical offset of the first payload byte of a chain's k-th
// segment: Σ over i < k of (size of segment i − header).
func segStart(k int) int64 {
	if k <= segClasses {
		return int64(segGranule<<k - segGranule - k*SegHeaderLen)
	}
	return segStart(segClasses) + int64(k-segClasses)*SegMaxPayload
}

// SegAt maps a logical payload offset of a chain — any chain: the cut depends
// on nothing else — to the index k of the segment holding it, the offset in
// within that segment's payload, and that segment's payload size pay. It is
// the only place the size rule is turned into arithmetic.
func SegAt(off int64) (k int, in, pay int64) {
	for k < segClasses && off >= segStart(k+1) {
		k++
	}
	if k == segClasses {
		k += int((off - segStart(k)) / SegMaxPayload)
	}
	return k, off - segStart(k), segStart(k+1) - segStart(k)
}

func putSegHeader(b []byte, next SegID, class int) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(next))
	binary.LittleEndian.PutUint32(b[4:8], segMagic|uint32(class))
}

// parseSegHeader returns the header's next pointer and size class; ok is false
// when the bytes are not a segment header.
func parseSegHeader(b []byte) (next SegID, class int, ok bool) {
	w := binary.LittleEndian.Uint32(b[4:8])
	class = int(w & 0xFF)
	return SegID(binary.LittleEndian.Uint32(b[0:4])), class, w&^0xFF == segMagic && class <= segClasses
}

// segAlloc is the allocator's whole state. It is a value so that a write can
// reserve segments on a copy and publish the copy only once every device
// write succeeded.
type segAlloc struct {
	pages int64 // pages taken so far; the next fresh page is this one
	// open is, per sub-page class, the next free slot of the slab page being
	// filled. A slot that starts a page is none: that page is full, and a
	// fresh one is taken.
	open [segClasses]SegID
}

// take reserves the k-th segment of some chain.
func (a *segAlloc) take(k int) (SegID, error) {
	c := segClass(k)
	if c < segClasses && a.open[c]%granulesPerPage != 0 {
		a.open[c] += 1 << c
		return a.open[c] - 1<<c, nil
	}
	first := a.pages * granulesPerPage
	if first+granulesPerPage > int64(NoSegment) {
		return 0, fmt.Errorf("storage: segment space exhausted")
	}
	a.pages++
	if c < segClasses {
		a.open[c] = SegID(first) + 1<<c
	}
	return SegID(first), nil
}

// SegStore allocates segments inside a File and stitches them into
// independently growable chains.
type SegStore struct {
	f    *File
	base int64

	mu     sync.Mutex
	alloc  segAlloc
	chains map[ChainID][]SegID // lazily loaded chain → ordered segments
}

// NewSegStore lays segments inside f starting at byte offset base, a multiple
// of the page size (the region before base is the caller's superblock). Over an
// existing file allocation resumes at the next whole page: finding the slab
// pages left partly filled would read every page, so a session that appends
// leaves at most one partly used page per sub-page size; a rebuild packs them.
func NewSegStore(f *File, base int64) *SegStore {
	if base%segPage != 0 {
		panic(fmt.Sprintf("storage: segment base %d is not page-aligned", base))
	}
	s := &SegStore{f: f, base: base, chains: make(map[ChainID][]SegID)}
	if sz := f.Size(); sz > base {
		s.alloc.pages = (sz - base + segPage - 1) / segPage
	}
	return s
}

// ChainSegments returns chain c's segments in logical order. The returned
// slice is shared with the store's cache and must not be modified; it is
// stable for as long as the caller prevents concurrent appends (the index
// holds its own lock across a query).
func (s *SegStore) ChainSegments(c ChainID) ([]SegID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(c)
}

// SegmentOffset returns the file byte offset of segment id's header; its
// payload starts SegHeaderLen bytes on.
func (s *SegStore) SegmentOffset(id SegID) int64 {
	return s.base + int64(id)*segGranule
}

// ReadSegmentPayload reads the first len(p) payload bytes of segment id,
// regardless of which chain it belongs to. The integrity layer uses it to
// recompute and verify per-segment checksums.
func (s *SegStore) ReadSegmentPayload(id SegID, p []byte) error {
	return s.f.ReadAt(p, s.SegmentOffset(id)+SegHeaderLen)
}

// Create starts a new chain and returns its id.
func (s *SegStore) Create() (ChainID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.alloc // reserved on a copy, published once the write succeeded
	id, err := a.take(0)
	if err != nil {
		return 0, err
	}
	var hdr [SegHeaderLen]byte
	putSegHeader(hdr[:], NoSegment, 0)
	if err := s.f.WriteAt(hdr[:], s.SegmentOffset(id)); err != nil {
		return 0, err
	}
	s.alloc, s.chains[id] = a, []SegID{id}
	return id, nil
}

// loadLocked materializes the segment list of chain c. A link is followed
// only onto a segment of the size its position demands, naturally aligned and
// inside the file, so a damaged next pointer cannot splice a chain into the
// middle of a larger segment or across sizes. Caller holds mu.
func (s *SegStore) loadLocked(c ChainID) ([]SegID, error) {
	if segs, ok := s.chains[c]; ok {
		return segs, nil
	}
	var segs []SegID
	var hdr [SegHeaderLen]byte
	for cur := c; cur != NoSegment; {
		k := len(segs)
		if int64(k) >= s.alloc.pages+segClasses {
			// More links than the file can hold: a damaged next pointer
			// closed a loop.
			return nil, fmt.Errorf("storage: chain %d loops back on itself", c)
		}
		want := segClass(k)
		if cur&(1<<want-1) != 0 || int64(cur)/granulesPerPage >= s.alloc.pages {
			return nil, fmt.Errorf("storage: chain %d: link %d is no segment %d of a chain", c, cur, k)
		}
		if err := s.f.ReadAt(hdr[:], s.SegmentOffset(cur)); err != nil {
			return nil, err
		}
		next, class, ok := parseSegHeader(hdr[:])
		if !ok || class != want {
			return nil, fmt.Errorf("storage: chain %d: segment %d is no header of size class %d (ok %v, class %d)", c, cur, want, ok, class)
		}
		segs = append(segs, cur)
		cur = next
	}
	s.chains[c] = segs
	return segs, nil
}

// locate returns the file offset of logical payload offset off of chain c and
// the payload bytes from there to the end of its segment.
func (s *SegStore) locate(c ChainID, off int64) (at, run int64, err error) {
	segs, err := s.ChainSegments(c)
	if err != nil {
		return 0, 0, err
	}
	k, in, pay := SegAt(off)
	if k >= len(segs) {
		return 0, 0, fmt.Errorf("storage: offset %d past chain %d capacity", off, c)
	}
	return s.SegmentOffset(segs[k]) + SegHeaderLen + in, pay - in, nil
}

// ReadAt fills p from chain c's logical payload stream starting at off.
// Reading past the allocated capacity is an error.
func (s *SegStore) ReadAt(c ChainID, p []byte, off int64) error {
	for len(p) > 0 {
		at, run, err := s.locate(c, off)
		if err != nil {
			return err
		}
		n := int(min(run, int64(len(p))))
		if err := s.f.ReadAt(p[:n], at); err != nil {
			return err
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// PinView pins the page under logical payload offset off of chain c and
// returns the contiguous run of payload bytes starting there — bounded by
// the end of the segment and the end of the page — plus the pinned frame.
// The caller must Release the frame when done with the bytes. An offset past
// the chain's allocated capacity is an error.
func (s *SegStore) PinView(c ChainID, off int64) (*Frame, []byte, error) {
	at, run, err := s.locate(c, off)
	if err != nil {
		return nil, nil, err
	}
	fr, b, err := s.f.PinPage(at)
	if err != nil {
		return nil, nil, err
	}
	return fr, b[:min(run, int64(len(b)))], nil
}

// WriteAt writes p into chain c's logical payload stream at off, extending
// the chain with fresh segments as needed.
//
// Segments are written last to first. A fresh segment goes out whole — header,
// already pointing at its successor, and payload in one write — and the old
// tail is re-linked only once every fresh segment is down, so at every device
// operation the chain on the device is the old one or the new one complete
// (payload for segments before the old tail follows; no link depends on it).
// The lock is held throughout: allocator and chain cache move after the last.
func (s *SegStore) WriteAt(c ChainID, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := s.loadLocked(c)
	if err != nil {
		return err
	}
	end := off + int64(len(p))
	first, _, _ := SegAt(off)
	last, _, _ := SegAt(end - 1)
	segs, a, grown := old, s.alloc, last >= len(old)
	if grown {
		segs = append(make([]SegID, 0, last+1), old...)
		for k := len(old); k <= last; k++ {
			id, err := a.take(k)
			if err != nil {
				return err
			}
			segs = append(segs, id)
		}
		first = min(first, len(old)-1) // the old tail is re-linked
	}
	var hdr []byte // a header, and behind it the payload written in the same run
	for k := last; k >= first; k-- {
		// piece is the part of p inside segment k, at offset in of its payload.
		var piece []byte
		var in int64
		if lo, hi := max(off, segStart(k)), min(end, segStart(k+1)); lo < hi {
			piece, in = p[lo-off:hi-off], lo-segStart(k)
		}
		hdr = hdr[:0]
		if grown && k >= len(old)-1 { // a fresh segment, or the old tail: its header is written
			next := NoSegment
			if k < last {
				next = segs[k+1]
			}
			hdr = append(hdr, make([]byte, SegHeaderLen)...)
			putSegHeader(hdr, next, segClass(k))
			if k >= len(old) || in == 0 {
				// One run of bytes: nothing of a fresh segment is in use yet,
				// so a gap before the piece is zeros.
				hdr, piece = append(append(hdr, make([]byte, in)...), piece...), nil
			}
		}
		at := s.SegmentOffset(segs[k])
		if len(piece) > 0 {
			if err := s.f.WriteAt(piece, at+SegHeaderLen+in); err != nil {
				return err
			}
		}
		if len(hdr) > 0 {
			if err := s.f.WriteAt(hdr, at); err != nil {
				return err
			}
		}
	}
	s.alloc, s.chains[c] = a, segs
	return nil
}
