package core

import (
	"fmt"

	"github.com/sparsewide/iva/internal/storage"
)

// Read-repair primitives. A corrupt vector-list segment detected at query
// time or by a scrub can be healed in place from a replication
// peer: the peer serves the raw committed payload bytes, and RepairSegment
// accepts them only if they match THIS index's committed checksum word — the
// local checksum map is the ground truth, the wire adds no trust of its own.
// A peer at a different committed generation simply fails the check and the
// segment stays degraded until a matching peer (or a rebuild) comes along.

// SegmentSpan returns the file-byte span of segment seg's committed payload
// in iva.idx: the offset of the first payload byte and the committed length.
// ok is false when the segment is not covered by the committed checksum map
// or holds unsynced writes (dirty — its word is stale by design). The caller
// fetches exactly [off, off+n) from the peer's iva.idx and hands the bytes to
// RepairSegment.
func (ix *Index) SegmentSpan(seg uint32) (off, n int64, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	it := &ix.integ
	it.mu.Lock()
	e, covered := it.words[storage.SegID(seg)]
	_, dirty := it.dirty[storage.SegID(seg)]
	it.mu.Unlock()
	if !covered || dirty || e.n == 0 {
		return 0, 0, false
	}
	return ix.segs.SegmentOffset(storage.SegID(seg)) + storage.SegHeaderLen, int64(e.n), true
}

// RepairSegment overwrites segment seg's committed payload with a clean copy
// fetched from a peer, verifying the bytes against the LOCAL committed
// checksum word before any write reaches the file. It refuses dirty and
// uncovered segments. On success the segment is marked verified, so the next
// read serves it without degrading. The write bypasses the dirty-marking
// observer deliberately: it restores the committed bytes the word already
// describes, so the word must stay authoritative.
func (ix *Index) RepairSegment(seg uint32, payload []byte) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id := storage.SegID(seg)
	it := &ix.integ
	it.mu.Lock()
	e, covered := it.words[id]
	_, dirty := it.dirty[id]
	it.mu.Unlock()
	if !covered {
		return fmt.Errorf("core: repair segment %d: not covered by the committed checksum map", seg)
	}
	if dirty {
		return fmt.Errorf("core: repair segment %d: has unsynced writes", seg)
	}
	if len(payload) != e.n {
		return fmt.Errorf("core: repair segment %d: got %d bytes, committed span is %d", seg, len(payload), e.n)
	}
	masked := append([]byte(nil), payload...)
	maskTail(masked, e.mask)
	if storage.Checksum(masked) != e.crc {
		return fmt.Errorf("core: repair segment %d: peer bytes fail the committed checksum (peer at a different generation?)", seg)
	}
	// Write the masked copy: uncommitted low bits of a partial final byte are
	// zeroed rather than trusting the peer's, matching what verification reads.
	if err := ix.f.WriteAt(masked, ix.segs.SegmentOffset(id)+storage.SegHeaderLen); err != nil {
		return fmt.Errorf("core: repair segment %d: %w", seg, err)
	}
	if err := ix.f.Sync(); err != nil {
		return fmt.Errorf("core: repair segment %d: %w", seg, err)
	}
	it.mu.Lock()
	// Only mark verified if the word was not replaced while we wrote (it
	// cannot be — we hold ix.mu — but stay defensive about future callers).
	if cur, ok := it.words[id]; ok && cur == e {
		it.verified[id] = struct{}{}
	}
	it.mu.Unlock()
	return nil
}
