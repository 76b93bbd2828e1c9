package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/sparsewide/iva/internal/storage"
)

// segCRC is the committed checksum-map entry of one index segment.
type segCRC struct {
	crc  uint32 // CRC32C over the committed span
	n    int    // committed payload bytes (span is always a prefix)
	mask uint8  // committed bits of the final byte; 0 means all 8
}

// integrityState is the checksum machinery of an open index. The
// per-segment CRC32C words live out-of-line in a ping-ponged pair of
// checksum chains committed by the superblock, so segment payloads stay
// whole pages of list bits. No covered byte below a chain's committed end is
// written between Syncs, so every word can be checked at any moment.
type integrityState struct {
	mu       sync.Mutex
	words    map[storage.SegID]segCRC
	verified map[storage.SegID]struct{} // verified since open

	// full forces the next Sync to recompute every covered segment: set by
	// Build and when the committed map itself failed verification.
	full bool
	// mapDropped records that the committed checksum map was unreadable and
	// the open continued without it (reads run unverified until the next Sync
	// rewrites the map).
	mapDropped bool
	// droppedCkpts counts the committed checkpoint records discarded at open
	// because their chain failed its words or the map was dropped;
	// droppedCodecDirs likewise for packed-list block directories whose
	// open-time header walk failed (the list then reads degraded and rejects
	// writes until a rebuild).
	droppedCkpts     int
	droppedCodecDirs int
}

// chainCover names one chain whose committed prefix the checksum map covers.
type chainCover struct {
	chain storage.ChainID
	bits  int64
}

const crcMapMagic = 0x4352434D // "CRCM"

// initIntegrity arms the integrity state of a fresh Index. full requests a
// whole-map recompute at the next Sync (fresh build).
func (ix *Index) initIntegrity(full bool) {
	it := &ix.integ
	it.full = full
	it.words = make(map[storage.SegID]segCRC)
	it.verified = make(map[storage.SegID]struct{})
}

// coveredChains lists the chains the checksum map covers together with the
// bit lengths the next Sync commits: the tuple list, the deletion list, the
// attribute-list slot named by attrList, the checkpoint chain, and every
// attribute's vector list. The checksum chains cover themselves with a
// trailing map CRC.
func (ix *Index) coveredChains(attrList storage.ChainID) []chainCover {
	covers := make([]chainCover, 0, 4+len(ix.attrs))
	covers = append(covers, chainCover{ix.tupleChain, ix.tupleBits}, chainCover{ix.delChain, ix.deleted * int64(ix.ltid)})
	if attrList != storage.NoSegment {
		covers = append(covers, chainCover{attrList, int64(attrElemSize*len(ix.attrs)) * 8})
	}
	if ix.checkpointsEnabled() {
		covers = append(covers, chainCover{ix.ckptChain, 8 * ix.ckptTail()})
	}
	for i := range ix.attrs {
		if ix.attrs[i].exists {
			// Checksums cover the PHYSICAL stream: under codec 1 that is the
			// sealed block containers (headers included) plus the raw tail.
			covers = append(covers, chainCover{ix.attrs[i].chain, ix.attrs[i].physBits()})
		}
	}
	return covers
}

// segSpan returns the committed span of a segment whose payload is the pay
// bytes from logical offset start of a chain holding `bits` committed bits.
func segSpan(start, pay, bits int64) (n int, mask uint8) {
	span := (bits+7)/8 - start
	if span <= 0 {
		return 0, 0
	}
	if span > pay {
		return int(pay), 0
	}
	return int(span), uint8(bits & 7)
}

// maskTail zeroes the uncommitted low bits of the final committed byte
// (streams are MSB-first, so committed bits are the high ones).
func maskTail(p []byte, mask uint8) {
	if mask != 0 && len(p) > 0 {
		p[len(p)-1] &= 0xFF << (8 - mask)
	}
}

// recomputeChainCRCs refreshes the in-memory words for one covered chain.
// When onlyStale is true, segments whose stored span already matches the
// committed length are kept as-is: their committed bytes were not written.
func (ix *Index) recomputeChainCRCs(cov chainCover, onlyStale bool, buf []byte) error {
	ids, err := ix.segs.ChainSegments(cov.chain)
	if err != nil {
		return err
	}
	it := &ix.integ
	var start int64
	for _, id := range ids {
		_, _, pay := storage.SegAt(start)
		n, mask := segSpan(start, pay, cov.bits)
		start += pay
		it.mu.Lock()
		old, ok := it.words[id]
		it.mu.Unlock()
		if onlyStale && ok && old.n == n && old.mask == mask {
			continue
		}
		var crc uint32
		if n > 0 {
			if err := ix.segs.ReadSegmentPayload(id, buf[:n]); err != nil {
				return err
			}
			maskTail(buf[:n], mask)
			crc = storage.Checksum(buf[:n])
		}
		it.mu.Lock()
		it.words[id] = segCRC{crc: crc, n: n, mask: mask}
		it.verified[id] = struct{}{}
		it.mu.Unlock()
	}
	return nil
}

// writeCRCMap recomputes stale segment words, serializes the checksum map,
// and writes it to the target checksum-chain slot. Caller holds ix.mu.
func (ix *Index) writeCRCMap(target storage.ChainID) error {
	it := &ix.integ
	it.mu.Lock()
	full := it.full
	it.mu.Unlock()

	// The attribute list being committed is the slot Sync just wrote, which
	// is the one the superblock is about to point at: 1-attrSlot before the
	// in-memory flip. Sync rewrote it whole, so its words are recomputed even
	// where its span did not change; every other chain only grew at its tail.
	attrList := ix.slotChain(1 - ix.attrSlot)
	covers := ix.coveredChains(attrList)
	buf := make([]byte, storage.SegMaxPayload)
	for _, cov := range covers {
		if err := ix.recomputeChainCRCs(cov, !full && cov.chain != attrList, buf); err != nil {
			return err
		}
	}

	var blob []byte
	blob = binary.LittleEndian.AppendUint32(blob, crcMapMagic)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(covers)))
	for _, cov := range covers {
		ids, err := ix.segs.ChainSegments(cov.chain)
		if err != nil {
			return err
		}
		blob = binary.LittleEndian.AppendUint32(blob, uint32(cov.chain))
		blob = binary.LittleEndian.AppendUint64(blob, uint64(cov.bits))
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(ids)))
		it.mu.Lock()
		for _, id := range ids {
			blob = binary.LittleEndian.AppendUint32(blob, it.words[id].crc)
		}
		it.mu.Unlock()
	}
	blob = binary.LittleEndian.AppendUint32(blob, storage.Checksum(blob))
	return ix.segs.WriteAt(target, blob, 0)
}

// commitIntegrity finalizes integrity state after the superblock committed:
// stale words were recomputed and the map was written.
func (ix *Index) commitIntegrity() {
	it := &ix.integ
	it.mu.Lock()
	it.full = false
	it.mapDropped = false
	it.mu.Unlock()
}

// loadCRCMap reads the committed checksum map from chain c. A map that is
// itself damaged — a bad header, counts its chain cannot hold, a truncated
// body, a trailing CRC that does not match — is dropped: the index
// continues with verification disabled until the next Sync (recorded in
// mapDropped).
func (ix *Index) loadCRCMap(c storage.ChainID) error {
	drop := func() error {
		it := &ix.integ
		it.mu.Lock()
		it.words = make(map[storage.SegID]segCRC)
		it.mapDropped = true
		it.full = true
		it.mu.Unlock()
		return nil
	}
	mapSegs, err := ix.segs.ChainSegments(c)
	if err != nil {
		return err
	}
	var capBytes int64
	for range mapSegs {
		_, _, pay := storage.SegAt(capBytes)
		capBytes += pay
	}
	var pos int64
	running := uint32(0)
	read := func(p []byte) bool {
		if pos+int64(len(p)) > capBytes {
			return false
		}
		if err := ix.segs.ReadAt(c, p, pos); err != nil {
			return false
		}
		pos += int64(len(p))
		running = storage.ChecksumUpdate(running, p)
		return true
	}
	var hdr [8]byte
	if !read(hdr[:]) || binary.LittleEndian.Uint32(hdr[0:4]) != crcMapMagic {
		return drop()
	}
	nchains := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(nchains) > capBytes/16 { // more chain records than the map's chain can hold
		return drop()
	}
	type pendingWord struct {
		id storage.SegID
		segCRC
	}
	var pending []pendingWord
	for i := uint32(0); i < nchains; i++ {
		var ch [16]byte
		if !read(ch[:]) {
			return drop()
		}
		head := storage.ChainID(binary.LittleEndian.Uint32(ch[0:4]))
		bits := int64(binary.LittleEndian.Uint64(ch[4:12]))
		nsegs := binary.LittleEndian.Uint32(ch[12:16])
		// Whether the map is damaged is for its trailer to say. A chain that
		// does not walk, or walks short of nsegs, has a damaged header: it
		// keeps the words of the segments found (a spliced-in one fails its
		// word or is named twice below; reads past a short chain fail) and the
		// map goes on vouching for every other chain — dropping it here would
		// switch all verification off on the commonest single fault.
		ids, _ := ix.segs.ChainSegments(head)
		var start int64
		for k := uint32(0); k < nsegs; k++ {
			var w [4]byte
			if !read(w[:]) {
				return drop()
			}
			_, _, pay := storage.SegAt(start)
			n, mask := segSpan(start, pay, bits)
			start += pay
			if int(k) < len(ids) {
				pending = append(pending, pendingWord{ids[k], segCRC{
					crc: binary.LittleEndian.Uint32(w[:]), n: n, mask: mask,
				}})
			}
		}
	}
	want := running
	var trailer [4]byte
	if pos+4 > capBytes {
		return drop()
	}
	if err := ix.segs.ReadAt(c, trailer[:], pos); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(trailer[:]) != want {
		return drop()
	}
	it := &ix.integ
	it.mu.Lock()
	defer it.mu.Unlock()
	for _, p := range pending {
		// Segment headers carry no checksum, so a damaged next pointer can
		// splice one chain into another, and the later chain's word would
		// then vouch for bytes read as part of the earlier one. No layout
		// survives that, so it fails the open in both modes.
		if _, dup := it.words[p.id]; dup {
			return &storage.CorruptionError{File: "iva.idx",
				Offset: ix.segs.SegmentOffset(p.id), Segment: uint32(p.id),
				Detail: "segment linked into two chains"}
		}
		it.words[p.id] = p.segCRC
	}
	return nil
}

// verifySegment checks one segment against its committed CRC32C word on
// first touch. Uncovered segments are skipped; a verified segment is not
// re-read until the next open (Scrub forces a full re-verification).
func (ix *Index) verifySegment(id storage.SegID) error {
	it := &ix.integ
	it.mu.Lock()
	if _, ok := it.verified[id]; ok {
		it.mu.Unlock()
		return nil
	}
	e, ok := it.words[id]
	it.mu.Unlock()
	if !ok {
		return nil
	}
	if err := ix.checkWord(id, e); err != nil {
		return err
	}
	it.mu.Lock()
	it.verified[id] = struct{}{}
	it.mu.Unlock()
	return nil
}

// checkWord reads a segment's committed span and compares it to e.
func (ix *Index) checkWord(id storage.SegID, e segCRC) error {
	var crc uint32
	if e.n > 0 {
		buf := make([]byte, e.n)
		if err := ix.segs.ReadSegmentPayload(id, buf); err != nil {
			return err
		}
		maskTail(buf, e.mask)
		crc = storage.Checksum(buf)
	}
	if crc != e.crc {
		return &storage.CorruptionError{File: "iva.idx",
			Offset: ix.segs.SegmentOffset(id), Segment: uint32(id),
			Detail: fmt.Sprintf("segment checksum mismatch (%d committed bytes)", e.n)}
	}
	return nil
}

// attachVerify hooks first-touch checksum verification into a chain reader.
// The chain's segment list is resolved once: appends cannot race a query
// (both run under ix.mu), and pooled readers re-attach after every Reset.
func (ix *Index) attachVerify(r *storage.ChainBitReader, c storage.ChainID) {
	ids, err := ix.segs.ChainSegments(c)
	if err != nil {
		return // the read itself will surface the chain error
	}
	r.SetVerify(func(off, n int64) error {
		first, _, _ := storage.SegAt(off)
		last, _, _ := storage.SegAt(off + n - 1)
		for k := first; k <= last && k < len(ids); k++ {
			if err := ix.verifySegment(ids[k]); err != nil {
				return err
			}
		}
		return nil
	})
}

// verifyChain checks every committed segment of a chain against its word
// immediately (not first-touch). Open uses it on the chains it reads through
// segs.ReadAt, which bypasses ChainBitReader: the attribute-list slot and the
// checkpoint chain.
func (ix *Index) verifyChain(c storage.ChainID) error {
	ids, err := ix.segs.ChainSegments(c)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := ix.verifySegment(id); err != nil {
			return err
		}
	}
	return nil
}

// crcChain maps a checksum-map slot number to its chain.
func (ix *Index) crcChain(slot int) storage.ChainID {
	if slot == 0 {
		return ix.crcChainA
	}
	return ix.crcChainB
}

// DroppedCheckpoints returns the number of committed checkpoint records
// discarded at open because their chain failed verification or the checksum
// map was dropped.
func (ix *Index) DroppedCheckpoints() int {
	it := &ix.integ
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.droppedCkpts
}

// DroppedCodecDirs returns the number of packed vector lists whose block
// directory failed its open-time header walk and now reads degraded.
func (ix *Index) DroppedCodecDirs() int {
	it := &ix.integ
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.droppedCodecDirs
}
