package core

import (
	"encoding/binary"
	"fmt"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vaq"
)

// Stripe zone maps. Every sealed stripe — a full run of ckptEvery
// tuple-list entries — carries one zone record summarizing, per attribute,
// the information needed to lower-bound the estimated distance of ANY tuple
// in the stripe for an arbitrary query:
//
//   - numeric attributes: the min/max quantizer code observed, so
//     vaq.MinDistRange bounds every per-tuple MinDist from below;
//   - text attributes: the min/max data-string length observed, so
//     signature.MinEstLenRange (every query gram assumed to hit) bounds
//     every per-tuple Est from below;
//   - whether any tuple in the stripe is ndf on the attribute (the bound
//     must then also admit the constant ndf penalty);
//   - the stripe's live (non-tombstoned) tuple count.
//
// Both query plans consult the record at stripe-claim time: combining the
// per-term minima through the (monotone) metric yields a distance no tuple
// in the stripe can beat, and when even that exceeds the shared admission
// bar — the existing strict est > bar rule — the whole stripe is skipped
// without opening a cursor. Every skipped tuple would have been pruned (or
// refined into a pool slot it cannot win: its exact distance is above a full
// pool's bar), so results stay byte-identical; only the I/O disappears.
//
// Records live in their own segment chain, whole-chain rewritten by Sync
// (deletes mutate live counts, so unlike checkpoints the chain is not
// append-stable; the authoritative count is in the superblock). Tombstones
// are written through to the tuple list immediately, so a live count from an
// older commit only over-counts — conservative in the safe direction. Each
// record carries a CRC32C trailer folded with its index; damage found at
// open drops all zone records under DegradeReads (pruning disabled, answers
// unchanged) and fails the open under Strict. Stripes whose summary was
// never observed (the accumulator was cold after a mid-stripe reopen) seal
// as explicit "unknown" records so record s always describes stripe s.

// zoneAttr is one attribute's summary inside a sealed stripe's zone record.
type zoneAttr struct {
	defined bool // some live-at-seal tuple defines the attribute
	anyNDF  bool // some tuple in the stripe is ndf on it
	numeric bool // payload is a code range; otherwise a string-length range
	minCode uint64
	maxCode uint64
	minLen  uint8
	maxLen  uint8
}

// zoneRec summarizes one sealed stripe.
type zoneRec struct {
	known bool
	live  int64 // decremented in memory by deletes, persisted next Sync
	attrs []zoneAttr
}

// zoneAttrAcc accumulates one attribute's summary for the open stripe.
type zoneAttrAcc struct {
	defined int64
	minCode uint64
	maxCode uint64
	minLen  int
	maxLen  int
}

// zoneAcc accumulates the open (not yet sealed) stripe. valid is false when
// some of the stripe's entries predate this Index instance (reopened mid-
// stripe): the stripe then seals as an unknown record.
type zoneAcc struct {
	valid bool
	count int64
	live  int64
	attrs []zoneAttrAcc
}

func (z *zoneAcc) reset(valid bool) {
	z.valid = valid
	z.count = 0
	z.live = 0
	z.attrs = z.attrs[:0]
}

// zonesEnabled reports whether this index records zone maps (false after
// zone damage was degraded around at open).
func (ix *Index) zonesEnabled() bool { return ix.zoneChain != storage.NoSegment }

// zonePruneEligible reports whether stripe-claim pruning can run right now.
func (ix *Index) zonePruneEligible() bool {
	return !ix.zoneOff && len(ix.zones) > 0
}

// SetZoneMaps toggles zone-map stripe pruning at runtime. Results are
// byte-identical either way (the differential oracle proves it); recording
// is unaffected, so re-enabling restores full pruning.
func (ix *Index) SetZoneMaps(enabled bool) {
	ix.mu.Lock()
	ix.zoneOff = !enabled
	ix.mu.Unlock()
}

// ZoneMapsOn reports whether stripe pruning is enabled (it still needs
// sealed zone records to have any effect).
func (ix *Index) ZoneMapsOn() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return !ix.zoneOff && ix.zonesEnabled()
}

// ZoneMapCoverage reports how many stripes carry a usable (known) zone
// record out of the sealed stripes the tuple list implies. A freshly built
// index covers everything; a stripe that was open across a reopen seals
// unknown (a rebuild covers the backlog).
func (ix *Index) ZoneMapCoverage() (known, sealed int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.ckptEvery > 0 {
		sealed = int(int64(len(ix.entries)) / ix.ckptEvery)
	}
	for i := range ix.zones {
		if ix.zones[i].known {
			known++
		}
	}
	return known, sealed
}

// DroppedZones returns the number of zone records discarded at open because
// their CRC trailer failed (DegradeReads only).
func (ix *Index) DroppedZones() int {
	it := &ix.integ
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.droppedZones
}

// --- recording -------------------------------------------------------------

// The open stripe's accumulator is fed one tuple-list entry at a time, right
// after the entry is appended to ix.entries (caller holds ix.mu): zoneBegin,
// the entry's defined attributes, then zoneEnd, which seals a zone record
// when the stripe fills. Build feeds it record fields (zoneField), Insert the
// value map it was handed (zoneObserve, which does all three steps).

func (ix *Index) zoneBegin() {
	if !ix.zonesEnabled() {
		return
	}
	acc := &ix.zacc
	acc.count++
	acc.live++
	if acc.valid {
		for len(acc.attrs) < len(ix.attrs) {
			acc.attrs = append(acc.attrs, zoneAttrAcc{})
		}
	}
}

// zoneAttr returns the open stripe's accumulator for attribute a, or nil when
// nothing is being recorded for it.
func (ix *Index) zoneAttr(a model.AttrID) *zoneAttrAcc {
	if !ix.zonesEnabled() || !ix.zacc.valid || int(a) >= len(ix.zacc.attrs) {
		return nil
	}
	return &ix.zacc.attrs[a]
}

// numeric folds in the value of a numeric attribute. (Attributes without a
// quantizer have no code to bound and are left unobserved.)
func (za *zoneAttrAcc) numeric(q *vaq.Quantizer, num float64) {
	if q == nil {
		return
	}
	code := q.Encode(num)
	if za.defined == 0 || code < za.minCode {
		za.minCode = code
	}
	if za.defined == 0 || code > za.maxCode {
		za.maxCode = code
	}
	za.defined++
}

// strLen folds in the length of one string of a text value; the value counts
// as defined once all of its strings are in.
func (za *zoneAttrAcc) strLen(n int) {
	if za.defined == 0 && za.minLen == 0 && za.maxLen == 0 {
		za.minLen, za.maxLen = n, n
		return
	}
	if n < za.minLen {
		za.minLen = n
	}
	if n > za.maxLen {
		za.maxLen = n
	}
}

// zoneField observes one field of the entry's record.
func (ix *Index) zoneField(f *table.Field) {
	za := ix.zoneAttr(f.Attr)
	switch {
	case za == nil:
	case f.Kind == model.KindNumeric:
		za.numeric(ix.attrs[f.Attr].quant, f.Num)
	case f.NStr > 0: // no strings: indistinguishable from ndf
		for rest := f.Strs; len(rest) > 0; rest = rest[1+int(rest[0]):] {
			za.strLen(int(rest[0]))
		}
		za.defined++
	}
}

// zoneObserve observes a whole entry from the values it was inserted with.
func (ix *Index) zoneObserve(values map[model.AttrID]model.Value) {
	ix.zoneBegin()
	for a, v := range values {
		za := ix.zoneAttr(a)
		switch {
		case za == nil:
		case ix.attrs[a].layout.Kind == model.KindNumeric:
			za.numeric(ix.attrs[a].quant, v.Num)
		case len(v.Strs) > 0:
			for _, s := range v.Strs {
				za.strLen(len(s))
			}
			za.defined++
		}
	}
	ix.zoneEnd()
}

// zoneEnd seals the stripe when the entry filled it. Seal on the entry
// count, not the accumulator count: after a mid-stripe reopen the
// accumulator starts cold partway through a stripe and its count never
// equals the stripe width at the boundary.
func (ix *Index) zoneEnd() {
	if ix.zonesEnabled() && int64(len(ix.entries))%ix.ckptEvery == 0 {
		ix.zoneSeal()
	}
}

// zoneSeal converts the accumulator into the zone record of the stripe that
// just filled and resets the accumulator for the next one.
func (ix *Index) zoneSeal() {
	acc := &ix.zacc
	want := int64(len(ix.entries))/ix.ckptEvery - 1
	if int64(len(ix.zones)) != want {
		// Defensive, mirroring recordCheckpoint: a gap would make record s
		// describe the wrong stripe. Disable zone maps rather than prune on
		// wrong bounds; the next rebuild re-records a full set.
		ix.zoneChain = storage.NoSegment
		ix.zones = nil
		acc.reset(false)
		return
	}
	rec := zoneRec{known: acc.valid, live: acc.live}
	if acc.valid {
		rec.attrs = make([]zoneAttr, len(ix.attrs))
		for a := range rec.attrs {
			var za zoneAttrAcc
			if a < len(acc.attrs) {
				za = acc.attrs[a]
			}
			rec.attrs[a] = zoneAttr{
				defined: za.defined > 0,
				anyNDF:  za.defined < acc.count,
				numeric: ix.attrs[a].exists && ix.attrs[a].layout.Kind == model.KindNumeric,
				minCode: za.minCode,
				maxCode: za.maxCode,
				minLen:  uint8(za.minLen),
				maxLen:  uint8(za.maxLen),
			}
		}
	}
	ix.zones = append(ix.zones, rec)
	acc.reset(true)
}

// zoneNoteDelete lowers the live count of the stripe holding pos. The
// min/max summaries keep describing a superset of the survivors — still a
// valid lower bound — and a stripe whose live count reaches zero is skipped
// unconditionally.
func (ix *Index) zoneNoteDelete(pos int64) {
	if !ix.zonesEnabled() {
		return
	}
	if s := pos / ix.ckptEvery; s < int64(len(ix.zones)) {
		if ix.zones[s].known && ix.zones[s].live > 0 {
			ix.zones[s].live--
		}
	} else if ix.zacc.live > 0 {
		ix.zacc.live--
	}
}

// --- query-time bound ------------------------------------------------------

// zoneBound computes the minimum estimated distance any live tuple in stripe
// s can have for this query: per term the best case the zone record allows,
// combined through the metric (monotone in every coordinate). ok is false
// when no usable record exists (unsealed tail stripe, unknown record, zone
// maps off); empty marks a stripe with no live tuples, skippable regardless
// of the bar.
func (ix *Index) zoneBound(s int64, sw *stripeWorker) (est float64, empty, ok bool) {
	terms, m, diffs := sw.terms, sw.m, sw.scratch.diffs
	if !ix.zonePruneEligible() || s >= int64(len(ix.zones)) {
		return 0, false, false
	}
	rec := &ix.zones[s]
	if !rec.known {
		return 0, false, false
	}
	if rec.live <= 0 {
		return 0, true, true
	}
	for i := range terms {
		ts := &terms[i]
		if ts.st == nil {
			// Attribute unknown to the index: every tuple is ndf on it, so
			// the penalty is the exact per-tuple difference, not a bound.
			diffs[i] = m.NDFPenalty
			continue
		}
		a := int(ts.term.Attr)
		if a >= len(rec.attrs) {
			// Attribute registered after the stripe sealed: none of its
			// tuples can define it.
			diffs[i] = m.NDFPenalty
			continue
		}
		za := &rec.attrs[a]
		if !za.defined {
			diffs[i] = m.NDFPenalty
			continue
		}
		var best float64
		switch {
		case za.numeric && ts.term.Kind == model.KindNumeric && ts.st.quant != nil:
			best = ts.st.quant.MinDistRange(ts.term.Num, za.minCode, za.maxCode)
		case !za.numeric && ts.term.Kind == model.KindText && ts.qs != nil:
			best = ts.qs.MinEstLenRange(int(za.minLen), int(za.maxLen))
		default:
			// Record kind disagrees with the live layout (stale or hostile
			// bytes that still passed CRC): no usable summary — a zero bound
			// never prunes on this term.
			best = 0
		}
		if za.anyNDF && m.NDFPenalty < best {
			best = m.NDFPenalty
		}
		diffs[i] = best
	}
	return sw.distance(diffs), false, true
}

// --- persistence -----------------------------------------------------------

// Zone chain layout (little-endian, byte-aligned):
//
//	u32 count
//	count × record:
//	  u8 flags (bit0 = known)
//	  known records add: u32 live | u32 nattrs | nattrs × attr
//	    attr: u8 aflags (bit0 defined, bit1 anyNDF, bit2 numeric)
//	          numeric: u64 minCode | u64 maxCode
//	          text:    u8 minLen | u8 maxLen
//	  u32 crc (CRC32C of the record bytes folded with the record index)
//
// The per-attr payload width is self-described by aflags bit2 so records
// parse without the attribute list; a disagreement with the live layout is
// handled at query time (the term contributes a zero bound, never a prune).
const zoneTrailerLen = 4

// zoneRecordCRC folds a serialized zone record with its index — the same
// position-binding rule as checkpoint records.
func zoneRecordCRC(rec []byte, index int) uint32 { return ckptRecordCRC(rec, index) }

// appendZoneRec serializes one record (without its trailer) onto blob.
func appendZoneRec(blob []byte, z *zoneRec) []byte {
	if !z.known {
		return append(blob, 0)
	}
	blob = append(blob, 1)
	live := z.live
	if live < 0 {
		live = 0
	}
	blob = binary.LittleEndian.AppendUint32(blob, uint32(live))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(z.attrs)))
	for i := range z.attrs {
		za := &z.attrs[i]
		var fl byte
		if za.defined {
			fl |= 1
		}
		if za.anyNDF {
			fl |= 2
		}
		if za.numeric {
			fl |= 4
		}
		blob = append(blob, fl)
		if za.numeric {
			blob = binary.LittleEndian.AppendUint64(blob, za.minCode)
			blob = binary.LittleEndian.AppendUint64(blob, za.maxCode)
		} else {
			blob = append(blob, za.minLen, za.maxLen)
		}
	}
	return blob
}

// writeZones serializes the whole zone chain. Called by Sync before the
// superblock commit; the committed count rides in the superblock.
func (ix *Index) writeZones() error {
	if !ix.zonesEnabled() {
		return nil
	}
	blob := binary.LittleEndian.AppendUint32(nil, uint32(len(ix.zones)))
	for i := range ix.zones {
		start := len(blob)
		blob = appendZoneRec(blob, &ix.zones[i])
		blob = binary.LittleEndian.AppendUint32(blob, zoneRecordCRC(blob[start:], i))
	}
	if err := ix.segs.WriteAt(ix.zoneChain, blob, 0); err != nil {
		return err
	}
	ix.zoneDiskRecs = len(ix.zones)
	return nil
}

// readZoneRec parses the record at off, returning the record, the bytes
// consumed (including the trailer), and whether it verified. Used by both
// readZones and scrubZones.
func (ix *Index) readZoneRec(off int64, index int) (zoneRec, int64, bool) {
	var rec []byte
	pos := off
	read := func(n int) ([]byte, bool) {
		p := make([]byte, n)
		if err := ix.segs.ReadAt(ix.zoneChain, p, pos); err != nil {
			return nil, false
		}
		pos += int64(n)
		rec = append(rec, p...)
		return p, true
	}
	fl, ok := read(1)
	if !ok {
		return zoneRec{}, 0, false
	}
	var z zoneRec
	if fl[0]&1 != 0 {
		z.known = true
		hdr, ok := read(8)
		if !ok {
			return zoneRec{}, 0, false
		}
		z.live = int64(binary.LittleEndian.Uint32(hdr[0:4]))
		nattrs := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if nattrs > len(ix.attrs) {
			// Implausible count: the attrs word is inside the damage the
			// trailer would have caught — treat as a failed record.
			return zoneRec{}, 0, false
		}
		z.attrs = make([]zoneAttr, nattrs)
		for a := 0; a < nattrs; a++ {
			af, ok := read(1)
			if !ok {
				return zoneRec{}, 0, false
			}
			za := &z.attrs[a]
			za.defined = af[0]&1 != 0
			za.anyNDF = af[0]&2 != 0
			za.numeric = af[0]&4 != 0
			if za.numeric {
				p, ok := read(16)
				if !ok {
					return zoneRec{}, 0, false
				}
				za.minCode = binary.LittleEndian.Uint64(p[0:8])
				za.maxCode = binary.LittleEndian.Uint64(p[8:16])
			} else {
				p, ok := read(2)
				if !ok {
					return zoneRec{}, 0, false
				}
				za.minLen, za.maxLen = p[0], p[1]
			}
		}
	}
	var tr [zoneTrailerLen]byte
	if err := ix.segs.ReadAt(ix.zoneChain, tr[:], pos); err != nil {
		return zoneRec{}, 0, false
	}
	pos += zoneTrailerLen
	if binary.LittleEndian.Uint32(tr[:]) != zoneRecordCRC(rec, index) {
		return zoneRec{}, 0, false
	}
	return z, pos - off, true
}

// readZones loads the committed zone records at open. count comes from the
// superblock; it is clamped to the sealed stripes the committed entry
// count implies, bounding allocation against hostile counts.
func (ix *Index) readZones(count int) error {
	if !ix.zonesEnabled() {
		return nil
	}
	if max := int(int64(len(ix.entries)) / ix.ckptEvery); count > max {
		count = max
	}
	if count < 0 {
		count = 0
	}
	ix.zones = make([]zoneRec, 0, count)
	off := int64(4)
	for i := 0; i < count; i++ {
		z, n, okRec := ix.readZoneRec(off, i)
		if !okRec {
			return ix.corruptZone(i, count)
		}
		off += n
		ix.zones = append(ix.zones, z)
	}
	ix.zoneDiskRecs = len(ix.zones)
	return nil
}

// corruptZone handles a zone record that failed verification at open. Strict
// fails the open. DegradeReads drops every record — framing past the damage
// is untrustworthy, and a truncated set would break the record-per-stripe
// alignment future seals rely on — so zone maps are disabled in-memory:
// queries simply stop pruning (answers unchanged) until the next rebuild
// re-records a full set. droppedZones counts the discarded records.
func (ix *Index) corruptZone(i, count int) error {
	if ix.imode == IntegrityStrict {
		return &storage.CorruptionError{File: "iva.idx",
			Offset: ix.segs.SegmentOffset(ix.zoneChain), Segment: uint32(ix.zoneChain),
			Detail: fmt.Sprintf("zone-map record %d checksum mismatch", i)}
	}
	it := &ix.integ
	it.mu.Lock()
	it.droppedZones = count - i
	it.mu.Unlock()
	ix.zoneChain = storage.NoSegment
	ix.zones = nil
	ix.zoneDiskRecs = 0
	ix.zacc.reset(false)
	return nil
}

// scrubZones re-reads the committed zone records, verifying each trailer.
// Framing past a damaged record is untrustworthy, so the remainder is
// counted corrupt and the sweep stops — the same rule as scrubCheckpoints.
func (ix *Index) scrubZones(count int, yield func()) (checked, bad int) {
	off := int64(4)
	for i := 0; i < count; i++ {
		if yield != nil {
			yield()
		}
		_, n, okRec := ix.readZoneRec(off, i)
		if !okRec {
			return checked, count - i
		}
		off += n
		checked++
	}
	return checked, 0
}

// ZoneExtents lists the committed byte spans of the zone-map chain in the
// index file, for fault-injection harnesses: a flip inside these spans must
// be detected (open under Strict, or scrub) and must only ever disable
// pruning, never change answers.
func (ix *Index) ZoneExtents() []VectorExtent {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.zonesEnabled() || ix.zoneDiskRecs == 0 {
		return nil
	}
	// Record sizes depend only on the known flag and the attr kinds, which
	// never mutate after sealing — so the committed blob length is computable
	// from the in-memory records even after deletes changed live counts.
	size := int64(4)
	for i := 0; i < ix.zoneDiskRecs && i < len(ix.zones); i++ {
		size += int64(len(appendZoneRec(nil, &ix.zones[i]))) + zoneTrailerLen
	}
	ids, err := ix.segs.ChainSegments(ix.zoneChain)
	if err != nil {
		return nil
	}
	pay := int64(ix.segs.PayloadSize())
	var out []VectorExtent
	for k, id := range ids {
		lo, hi := int64(k)*pay, int64(k+1)*pay
		if hi > size {
			hi = size
		}
		if lo < 4 {
			// The chain's count header is excluded: the authoritative count is
			// in the superblock, so those 4 bytes are never read back and carry
			// no CRC — a flip there must not be "expected detected".
			lo = 4
		}
		if hi <= lo {
			continue
		}
		out = append(out, VectorExtent{Offset: ix.segs.SegmentOffset(id) + 8 + (lo - int64(k)*pay), Len: hi - lo})
	}
	return out
}
