package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/sparsewide/iva/internal/storage"
)

// ScrubReport is the machine-readable outcome of one index scrub pass.
type ScrubReport struct {
	// Segments is the number of covered index segments swept;
	// CorruptSegments of them failed their committed CRC32C word.
	Segments        int
	CorruptSegments int

	// DroppedCheckpoints counts the committed checkpoint records discarded
	// when the index was opened.
	DroppedCheckpoints int

	// DroppedCodecDirs counts packed vector lists whose block
	// directory failed its header walk at open: their terms degrade to zero bounds (answers stay exact, filtering does
	// not), and writes demand a rebuild.
	DroppedCodecDirs int

	// SuperblockOK reports the superblock trailer check; MapDropped that the
	// committed checksum map was unreadable at open (or is now) and segment
	// coverage is degraded until the next Sync.
	SuperblockOK bool
	MapDropped   bool

	// Problems holds one line per damaged structure.
	Problems []string
}

// Clean reports whether the sweep found no damage.
func (r *ScrubReport) Clean() bool {
	return r.CorruptSegments == 0 &&
		r.DroppedCheckpoints == 0 && r.DroppedCodecDirs == 0 &&
		r.SuperblockOK && !r.MapDropped && len(r.Problems) == 0
}

func (r *ScrubReport) addProblem(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Scrub sweeps the whole index file verifying every committed checksum: the
// superblock trailer and each covered segment against its checksum-map word.
// Unlike query-time verification it ignores the first-touch cache — every
// covered byte is re-read — and it never degrades: damage is reported, not
// worked around. Read-only; safe to run on a live index, at any moment
// between or after writes.
func (ix *Index) Scrub() (*ScrubReport, error) { return ix.ScrubYield(nil) }

// ScrubYield is Scrub with a pacing hook: a non-nil yield is called once per
// verified segment, letting a background scrubber time-slice and I/O-throttle
// the sweep. Note the index read lock is held for the whole pass, so yields
// should stay short.
func (ix *Index) ScrubYield(yield func()) (*ScrubReport, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rep := &ScrubReport{SuperblockOK: true}

	// Superblock trailer.
	var b [superblockSize]byte
	if err := ix.f.ReadAt(b[:], 0); err != nil {
		return nil, err
	}
	if storage.Checksum(b[:sbCRCOff]) != binary.LittleEndian.Uint32(b[sbCRCOff:]) {
		rep.SuperblockOK = false
		rep.addProblem("superblock checksum mismatch")
	}

	// Covered segments, straight from the committed map words.
	it := &ix.integ
	for _, cov := range ix.coveredChains(ix.slotChain(ix.attrSlot)) {
		ids, err := ix.segs.ChainSegments(cov.chain)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			it.mu.Lock()
			e, ok := it.words[id]
			it.mu.Unlock()
			if !ok {
				continue // beyond the committed prefix (fresh segment)
			}
			rep.Segments++
			if yield != nil {
				yield()
			}
			if err := ix.checkWord(id, e); err != nil {
				var ce *storage.CorruptionError
				if !errors.As(err, &ce) {
					return nil, err
				}
				rep.CorruptSegments++
				rep.addProblem("%v", ce)
				continue
			}
			it.mu.Lock()
			it.verified[id] = struct{}{}
			it.mu.Unlock()
		}
	}

	it.mu.Lock()
	rep.DroppedCheckpoints = it.droppedCkpts
	rep.MapDropped = it.mapDropped
	rep.DroppedCodecDirs = it.droppedCodecDirs
	it.mu.Unlock()
	if rep.DroppedCheckpoints > 0 {
		rep.addProblem("%d checkpoint records dropped at open", rep.DroppedCheckpoints)
	}
	if rep.MapDropped {
		rep.addProblem("checksum map unreadable; segment coverage degraded until next sync")
	}
	if rep.DroppedCodecDirs > 0 {
		rep.addProblem("%d packed vector-list block directories dropped at open", rep.DroppedCodecDirs)
	}
	return rep, nil
}

// VectorExtent is one committed, checksummed byte span of a vector list in
// the index file. Fault-injection harnesses corrupt inside these spans when
// they expect detection plus exact results — vector
// lists are the only structures queries can degrade around.
type VectorExtent struct{ Offset, Len int64 }

// VectorExtents lists the committed spans of every attribute's vector list.
func (ix *Index) VectorExtents() []VectorExtent {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	it := &ix.integ
	var out []VectorExtent
	for i := range ix.attrs {
		st := &ix.attrs[i]
		if !st.exists || st.chain == storage.NoSegment {
			continue
		}
		ids, err := ix.segs.ChainSegments(st.chain)
		if err != nil {
			continue
		}
		for _, id := range ids {
			it.mu.Lock()
			e, ok := it.words[id]
			it.mu.Unlock()
			if !ok {
				continue
			}
			n := int64(e.n)
			if e.mask != 0 && n > 0 {
				n-- // final byte is partially committed
			}
			if n > 0 {
				out = append(out, VectorExtent{Offset: ix.segs.SegmentOffset(id) + storage.SegHeaderLen, Len: n})
			}
		}
	}
	return out
}
