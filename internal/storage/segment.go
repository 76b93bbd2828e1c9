package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The iVA-file keeps one vector list per attribute plus a tuple list, and
// §IV-B appends new elements at each list's tail. A flat file cannot grow
// more than one region at its end, so lists are stored as chains of
// fixed-size segments (extents): each segment carries a header pointing to
// the next segment of the same chain, and a chain exposes its payload bytes
// as one contiguous logical stream.

// SegID identifies a segment within a SegStore. Segment 0 is valid; the
// sentinel NoSegment terminates a chain.
type SegID uint32

// NoSegment is the nil segment pointer.
const NoSegment SegID = 0xFFFFFFFF

// ChainID names a chain by its head segment.
type ChainID = SegID

const segHeaderLen = 8 // next SegID (4 bytes) + magic/reserved (4 bytes)

const segMagic = 0x53474D54 // "SGMT"

// SegStore allocates fixed-size segments inside a File and stitches them
// into independently growable chains.
type SegStore struct {
	f       *File
	segSize int // total segment size including header
	base    int64

	mu     sync.Mutex
	nseg   int64               // segments allocated (derived from file size)
	chains map[ChainID][]SegID // lazily loaded chain → ordered segments
	tails  map[ChainID]SegID   // chain → last segment

	// onWrite, when set, observes every segment whose payload bytes are
	// written. The index integrity layer uses it to mark segments dirty so
	// the next Sync recomputes their CRC32C words.
	onWrite func(SegID)
}

// NewSegStore lays segments of segSize bytes inside f starting at byte
// offset base (the region before base is the caller's superblock).
// segSize must exceed the header length; typical values are 16–64 KiB.
func NewSegStore(f *File, base int64, segSize int) (*SegStore, error) {
	if segSize <= segHeaderLen+8 {
		return nil, fmt.Errorf("storage: segment size %d too small", segSize)
	}
	s := &SegStore{
		f:       f,
		segSize: segSize,
		base:    base,
		chains:  make(map[ChainID][]SegID),
		tails:   make(map[ChainID]SegID),
	}
	if sz := f.Size(); sz > base {
		s.nseg = (sz - base + int64(segSize) - 1) / int64(segSize)
	}
	return s, nil
}

// PayloadSize returns the usable bytes per segment.
func (s *SegStore) PayloadSize() int { return s.segSize - segHeaderLen }

// File returns the file the segments live in (for per-file I/O attribution).
func (s *SegStore) File() *File { return s.f }

// SegmentSize returns the full segment size including its header.
func (s *SegStore) SegmentSize() int { return s.segSize }

// Segments returns the number of segments allocated so far.
func (s *SegStore) Segments() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nseg
}

// SetWriteObserver installs fn to be called with the id of every segment
// whose payload bytes are subsequently written. Pass nil to remove it.
func (s *SegStore) SetWriteObserver(fn func(SegID)) {
	s.mu.Lock()
	s.onWrite = fn
	s.mu.Unlock()
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

// SegmentOffset returns the file byte offset of segment id's header.
func (s *SegStore) SegmentOffset(id SegID) int64 { return s.segOffset(id) }

// ReadSegmentPayload reads the first len(p) payload bytes of segment id,
// regardless of which chain it belongs to. The integrity layer uses it to
// recompute and verify per-segment checksums.
func (s *SegStore) ReadSegmentPayload(id SegID, p []byte) error {
	if len(p) > s.PayloadSize() {
		return fmt.Errorf("storage: payload read of %d exceeds segment size", len(p))
	}
	return s.f.ReadAt(p, s.segOffset(id)+segHeaderLen)
}

func (s *SegStore) segOffset(id SegID) int64 {
	return s.base + int64(id)*int64(s.segSize)
}

// allocLocked appends a fresh segment with no successor. Caller holds mu.
func (s *SegStore) allocLocked() (SegID, error) {
	id := SegID(s.nseg)
	if id >= NoSegment {
		return 0, fmt.Errorf("storage: segment space exhausted")
	}
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(NoSegment))
	binary.LittleEndian.PutUint32(hdr[4:8], segMagic)
	if err := s.f.WriteAt(hdr[:], s.segOffset(id)); err != nil {
		return 0, err
	}
	s.nseg++
	return id, nil
}

func (s *SegStore) readNext(id SegID) (SegID, error) {
	var hdr [segHeaderLen]byte
	if err := s.f.ReadAt(hdr[:], s.segOffset(id)); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != segMagic {
		return 0, fmt.Errorf("storage: segment %d has bad magic", id)
	}
	return SegID(binary.LittleEndian.Uint32(hdr[0:4])), nil
}

func (s *SegStore) writeNext(id, next SegID) error {
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(next))
	binary.LittleEndian.PutUint32(hdr[4:8], segMagic)
	return s.f.WriteAt(hdr[:], s.segOffset(id))
}

// Create starts a new chain and returns its id.
func (s *SegStore) Create() (ChainID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.allocLocked()
	if err != nil {
		return 0, err
	}
	s.chains[id] = []SegID{id}
	s.tails[id] = id
	return id, nil
}

// loadLocked materializes the segment list of chain c. Caller holds mu.
func (s *SegStore) loadLocked(c ChainID) ([]SegID, error) {
	if segs, ok := s.chains[c]; ok {
		return segs, nil
	}
	var segs []SegID
	for cur := c; cur != NoSegment; {
		if int64(len(segs)) == s.nseg {
			// More links than segments: a damaged next pointer closed a loop.
			return nil, fmt.Errorf("storage: chain %d loops back on itself", c)
		}
		segs = append(segs, cur)
		next, err := s.readNext(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	s.chains[c] = segs
	s.tails[c] = segs[len(segs)-1]
	return segs, nil
}

// Len returns the allocated payload capacity of chain c in bytes.
func (s *SegStore) Len(c ChainID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := s.loadLocked(c)
	if err != nil {
		return 0, err
	}
	return int64(len(segs)) * int64(s.PayloadSize()), nil
}

// ReadAt fills p from chain c's logical payload stream starting at off.
// Reading past the allocated capacity is an error.
func (s *SegStore) ReadAt(c ChainID, p []byte, off int64) error {
	s.mu.Lock()
	segs, err := s.loadLocked(c)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	pay := int64(s.PayloadSize())
	for len(p) > 0 {
		idx := off / pay
		if idx >= int64(len(segs)) {
			return fmt.Errorf("storage: read past chain %d capacity", c)
		}
		in := off % pay
		n := int(pay - in)
		if n > len(p) {
			n = len(p)
		}
		at := s.segOffset(segs[idx]) + segHeaderLen + in
		if err := s.f.ReadAt(p[:n], at); err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// PinView pins the page under logical payload offset off of chain c and
// returns the contiguous run of payload bytes starting there — bounded by
// the end of the segment and the end of the page — plus the pinned frame.
// The caller must Release the frame when done with the bytes.
func (s *SegStore) PinView(c ChainID, off int64) (*Frame, []byte, error) {
	s.mu.Lock()
	segs, err := s.loadLocked(c)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	pay := int64(s.PayloadSize())
	idx := off / pay
	if idx >= int64(len(segs)) {
		return nil, nil, fmt.Errorf("storage: pin past chain %d capacity", c)
	}
	in := off % pay
	fr, b, err := s.f.PinPage(s.segOffset(segs[idx]) + segHeaderLen + in)
	if err != nil {
		return nil, nil, err
	}
	if run := pay - in; int64(len(b)) > run {
		b = b[:run]
	}
	return fr, b, nil
}

// WriteAt writes p into chain c's logical payload stream at off, extending
// the chain with fresh segments as needed.
func (s *SegStore) WriteAt(c ChainID, p []byte, off int64) error {
	s.mu.Lock()
	segs, err := s.loadLocked(c)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	pay := int64(s.PayloadSize())
	need := (off + int64(len(p)) + pay - 1) / pay
	for int64(len(segs)) < need {
		ns, err := s.allocLocked()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		tail := segs[len(segs)-1]
		if err := s.writeNext(tail, ns); err != nil {
			s.mu.Unlock()
			return err
		}
		segs = append(segs, ns)
	}
	s.chains[c] = segs
	s.tails[c] = segs[len(segs)-1]
	obs := s.onWrite
	s.mu.Unlock()

	for len(p) > 0 {
		idx := off / pay
		in := off % pay
		n := int(pay - in)
		if n > len(p) {
			n = len(p)
		}
		at := s.segOffset(segs[idx]) + segHeaderLen + in
		if err := s.f.WriteAt(p[:n], at); err != nil {
			return err
		}
		if obs != nil {
			obs(segs[idx])
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}
