package core

import (
	"encoding/binary"
	"errors"

	"github.com/sparsewide/iva/internal/storage"
)

// Stripe checkpoints cut the tuple list into fixed-width stripes so that the
// filter plan's workers can open cursors in the middle of every list. A
// checkpoint for tuple-list position P records, per attribute, the bit
// offset of the next unconsumed element header in that attribute's vector
// list — the "normalized" resume point: never mid-element, and never a
// frozen read-ahead header, so a fresh cursor seeked there decodes exactly
// the elements belonging to positions ≥ P. The tuple list itself needs no
// recorded offset: its elements are fixed-width, so position P lives at bit
// P·(ltid+ptrBits).
//
// Checkpoints are recorded while lists are written (Build, Insert,
// InsertBatch) and persisted in their own segment chain (see FORMAT.md §
// checkpoint chain); deletions leave them intact.

// defaultCheckpointEvery is the stripe width in tuple-list entries. At the
// paper's scales a stripe is a few hundred KiB of vector-list bits — coarse
// enough that checkpoint storage is negligible, fine enough that any worker
// pool load-balances well.
const defaultCheckpointEvery = 2048

// checkpoint is the resume state for one stripe boundary.
type checkpoint struct {
	// attrOff[a] is the bit offset of the next unconsumed element header in
	// attribute a's vector list. Attributes registered after the checkpoint
	// was recorded are absent (treated as offset 0, correct because their
	// lists hold only later tuples' elements).
	attrOff []int64
}

// attrOffset returns the resume offset of attribute a at this checkpoint.
func (c checkpoint) attrOffset(a int) int64 {
	if a < len(c.attrOff) {
		return c.attrOff[a]
	}
	return 0
}

// checkpointsEnabled reports whether this index records checkpoints (false
// after checkpoint damage was degraded around at open or recordCheckpoint's
// gap guard tripped, until the next rebuild).
func (ix *Index) checkpointsEnabled() bool { return ix.ckptChain != storage.NoSegment }

// recordCheckpoint appends the checkpoint for the stripe starting at the
// given tuple-list position. offs must be the per-attribute normalized
// offsets at that boundary. Caller holds ix.mu.
func (ix *Index) recordCheckpoint(pos int64, offs []int64) {
	if !ix.checkpointsEnabled() {
		return
	}
	if want := pos / ix.ckptEvery; int64(len(ix.ckpts)) != want {
		// Defensive: a gap would make stripe s resolve to the wrong record.
		// Drop to a single origin-anchored stripe rather than scan from
		// wrong offsets.
		ix.ckptChain = storage.NoSegment
		ix.ckpts = nil
		return
	}
	ix.ckpts = append(ix.ckpts, checkpoint{attrOff: offs})
}

// currentAttrOffsets snapshots each attribute's committed bit length — the
// normalized resume offsets at the current tail. extra(a) adds the bits an
// in-flight writer holds for attribute a beyond the committed length; nil
// means no pending bits.
func (ix *Index) currentAttrOffsets(extra func(a int) int64) []int64 {
	offs := make([]int64, len(ix.attrs))
	for a := range ix.attrs {
		offs[a] = ix.attrs[a].bitLen
		if extra != nil {
			offs[a] += extra(a)
		}
	}
	return offs
}

// --- persistence -----------------------------------------------------------

// Checkpoint chain layout (little-endian, byte-aligned):
//
//	count × record: u32 nattrs | nattrs × u64 attrOff
//
// count is the superblock's. Sync appends the records recorded since the
// last Sync behind the committed ones and commits them with the count; the
// checksum map covers the chain like every other list.

// ckptTail returns the chain's end once the records recorded since the last
// Sync are written behind the committed ones.
func (ix *Index) ckptTail() int64 {
	end := ix.ckptEnd
	for _, c := range ix.ckpts[ix.ckptSynced:] {
		end += 4 + 8*int64(len(c.attrOff))
	}
	return end
}

// writeCheckpoints writes the records recorded since the last Sync behind the
// committed ones. Caller holds ix.mu.
func (ix *Index) writeCheckpoints() error {
	if !ix.checkpointsEnabled() || ix.ckptSynced == len(ix.ckpts) {
		return nil
	}
	var buf []byte
	for _, c := range ix.ckpts[ix.ckptSynced:] {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.attrOff)))
		for _, off := range c.attrOff {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
		}
	}
	return ix.segs.WriteAt(ix.ckptChain, buf, ix.ckptEnd)
}

// commitCheckpoints moves the committed end over the records the superblock
// just committed.
func (ix *Index) commitCheckpoints() {
	if !ix.checkpointsEnabled() {
		return
	}
	ix.ckptEnd = ix.ckptTail()
	ix.ckptSynced = len(ix.ckpts)
}

// readCheckpoints loads the count checkpoint records the superblock
// committed, after verifying the chain against the checksum map. The count is
// clamped to the stripes the committed entry count implies, bounding the
// pre-allocation below against hostile counts. A torn Sync wrote only behind
// the committed records.
func (ix *Index) readCheckpoints(count int) error {
	if !ix.checkpointsEnabled() {
		return nil
	}
	if maxCkpts := int64(len(ix.entries))/ix.ckptEvery + 1; int64(count) > maxCkpts {
		count = int(maxCkpts)
	}
	var ce *storage.CorruptionError
	if err := ix.verifyChain(ix.ckptChain); ix.integ.mapDropped || errors.As(err, &ce) {
		ix.discardCheckpoints(count)
		return nil
	} else if err != nil {
		return err
	}
	ix.ckpts = make([]checkpoint, 0, count)
	for i := 0; i < count; i++ {
		var nb [4]byte
		if err := ix.segs.ReadAt(ix.ckptChain, nb[:], ix.ckptEnd); err != nil {
			return err
		}
		nattrs := int(binary.LittleEndian.Uint32(nb[:]))
		if nattrs > len(ix.attrs) { // bounds the allocation below
			ix.discardCheckpoints(count)
			return nil
		}
		rec := make([]byte, 8*nattrs)
		if err := ix.segs.ReadAt(ix.ckptChain, rec, ix.ckptEnd+4); err != nil {
			return err
		}
		offs := make([]int64, nattrs)
		for a := range offs {
			offs[a] = int64(binary.LittleEndian.Uint64(rec[a*8:]))
		}
		ix.ckptEnd += 4 + int64(len(rec))
		ix.ckpts = append(ix.ckpts, checkpoint{attrOff: offs})
	}
	ix.ckptSynced = count
	return nil
}

// discardCheckpoints handles a checkpoint chain that cannot be trusted at open:
// it failed its checksum-map words, or there were no words to check it
// against. A partial checkpoint list cannot drive the striped plan (stripe s
// resumes from record s, and missing records would silently skip the tuples
// they cover), so checkpointing is disabled in-memory: searches scan a single
// origin-anchored stripe on one worker and the next rebuild re-records a full
// set. droppedCkpts counts the discarded records.
func (ix *Index) discardCheckpoints(count int) {
	ix.integ.droppedCkpts = count
	ix.ckptChain = storage.NoSegment
	ix.ckpts = nil
}
