// Package core implements the iVA-file (§III-D, §IV): the inverted vector
// approximation file. An iVA-file consists of
//
//   - one tuple list: <tid, ptr> elements in increasing tid order, where ptr
//     is the tuple's byte offset in the table file,
//   - one deletion list: the tuple-list positions of deleted tuples, in the
//     order they were deleted,
//   - one attribute list: per-attribute metadata (list location and tail,
//     layout widths, quantizer domain) — the paper's
//     <ptr1, ptr2, df, str, α> elements, and
//   - one vector list per attribute holding the approximation vectors (text:
//     character histograms, numbers: relative-domain codes) in one of the
//     four organizations of §III-D.
//
// Queries run the parallel filter-and-refine plan of Algorithm 1; updates
// follow §IV-B (tail appends, periodic rebuild), except that a deletion is
// one more tail append, to the deletion list, instead of a mark written into
// the tuple list.
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/vaq"
	"github.com/sparsewide/iva/internal/vector"
)

const (
	// gramN is the paper's gram length n (Table I), which forms no gram here:
	// it is the width offset in l = 8·⌈α·(|s|+n−1)⌉ of every codec, and the
	// superblock records it as a constant of the format.
	gramN = 2
	// numericBytes is r, the stored width of a numeric value in bytes (a
	// float64); numeric vectors take ⌈α·r⌉ bytes. The superblock records it.
	numericBytes = 8
	// absDomainBound is the half-width of the fixed numeric domain the
	// AbsoluteDomains ablation quantizes over.
	absDomainBound = math.MaxInt32
)

// Options configure an iVA-file build.
type Options struct {
	// Alpha is the relative vector length α (Table I default: 20%).
	Alpha float64
	// TIDHeadroom reserves id space above the build-time maximum tid so
	// that inserts keep fitting the packed tid width between rebuilds.
	// Zero selects max(1024, |T|/4).
	TIDHeadroom int64
	// ForceType, when nonzero, disables the §III-D size-based selection
	// and uses this organization for every attribute it is legal for
	// (ablation: Type I everywhere). Illegal combinations fall back to
	// Type I.
	ForceType vector.ListType
	// AbsoluteDomains makes numeric quantizers use a fixed absolute domain
	// instead of the relative domain (ablation of §III-C). The domain used
	// is [-absDomainBound, +absDomainBound].
	AbsoluteDomains bool
	// AlphaOverride sets a per-attribute relative vector length, as the
	// paper's attribute-list element allows (§III-D stores α per
	// attribute). Attributes absent from the map use the global Alpha.
	AlphaOverride map[model.AttrID]float64
	// SearchParallelism caps the worker count of the striped filter plan.
	// 0 selects runtime.GOMAXPROCS(0); 1 = one worker.
	SearchParallelism int
	// CheckpointEvery is the stripe width: a resumable checkpoint is
	// recorded every CheckpointEvery tuple-list entries. Default 2048.
	CheckpointEvery int64
	// Codec selects how Build/Rebuild store Type I/II vector lists: 0 keeps
	// the raw bit-packed stream; 1 re-stores each sealed stripe as a
	// word-aligned block with a skip header and delta-coded tuple-id gaps.
	// Results are byte-identical either way — only the bytes inside a list
	// change, not how lists are cut into segments (that is a constant of the
	// format, storage.SegAt). Type III/IV lists and post-build tail appends
	// always store raw bits.
	Codec int
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = defaultCheckpointEvery
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Alpha <= 0 || o.Alpha > 1 {
		return fmt.Errorf("core: alpha = %v, want in (0,1]", o.Alpha)
	}
	if _, ok := vector.CodecByID(uint8(o.Codec)); !ok || o.Codec < 0 || o.Codec > 255 {
		return fmt.Errorf("core: codec = %d, want a registered codec id", o.Codec)
	}
	return nil
}

// ErrNeedsRebuild is returned by update operations when a packed field
// width (tid or string count) can no longer represent a new element; the
// caller must rebuild the index (Store.Rebuild does this).
var ErrNeedsRebuild = errors.New("core: packed field overflow, index rebuild required")

// ErrNotFound is returned when a tid does not name a live tuple.
var ErrNotFound = errors.New("core: tuple not found")

const (
	superblockSize = 4096
	indexMagic     = 0x69564146 // "iVAF"
	// indexVersion is the one on-disk format this package reads and writes.
	// A format change bumps it; Open refuses every other value (FORMAT.md §
	// Format policy) — there is no upgrade code.
	indexVersion = 11
	ptrBits      = 40 // table offsets up to 1 TiB
)

// Superblock byte offsets of the checksum-map fields and the deletion-list
// chain. The CRC32C trailer at sbCRCOff covers bytes [0, sbCRCOff).
const (
	sbCRCChainAOff = 88
	sbCRCChainBOff = 92
	sbCRCSlotOff   = 96
	sbDelChainOff  = 100
	sbCRCOff       = 104
)

// SuperblockStamp hashes a committed superblock page into a state stamp,
// EXCLUDING the embedded CRC trailer word. The exclusion is load-bearing,
// not cosmetic: CRC32C is linear, so for any two pages that each carry a
// valid trailer over their payload, the trailer difference exactly cancels
// the payload difference and a whole-page hash comes out identical — a
// constant, in fact, for every valid superblock ever written (the classic
// crc(m‖crc(m)) residue, generalized). A whole-page stamp therefore can
// never distinguish two committed states. Skipping the 4 trailer bytes
// restores content sensitivity.
func SuperblockStamp(page []byte) uint32 {
	if len(page) < sbCRCOff+4 {
		return storage.Checksum(page)
	}
	return storage.ChecksumUpdate(storage.Checksum(page[:sbCRCOff]), page[sbCRCOff+4:])
}

// tombstonePtr is the all-ones ptr, format 8's in-place deletion mark. No
// element holds it: a table offset must stay below it, and Check reports an
// element that does.
const tombstonePtr = uint64(1)<<ptrBits - 1

// attrState is the in-memory attribute-list element.
//
// bitLen is always the LOGICAL length of the vector list — the bit stream
// the Encoder produced and every reader and checkpoint addresses.
// Under codec 0 the physical stream is identical. Under codec 1 sealed
// stripes are transcoded into block containers occupying codedWords whole
// 64-bit words, followed by a raw tail of (bitLen - codedLogical) logical
// bits appended by inserts since the last seal; physBits() is the physical
// stream length checksums and appends operate on.
type attrState struct {
	layout vector.Layout
	chain  storage.ChainID
	bitLen int64
	alpha  float64        // the attribute's relative vector length
	quant  *vaq.Quantizer // numeric attributes
	exists bool           // attribute has a vector list

	// Block codec state. codecID and codedWords persist in the
	// attribute element; codedLogical and dir are rebuilt at open time by
	// walking the self-describing block headers (vector.WalkBlocks), so
	// they survive dropped checkpoint chains. dirBroken marks a packed
	// list whose directory failed that walk: reads
	// degrade per the usual corrupt-segment policy and writes demand a
	// rebuild (the tail position is unknowable).
	codecID      uint8
	codedWords   int64
	codedLogical int64
	dir          []vector.BlockMeta
	dirBroken    bool
}

// physBits returns the physical bit length of the attribute's vector list:
// the sealed block containers plus the raw logical tail. Equal to bitLen
// under codec 0 (codedWords and codedLogical are both zero).
func (a *attrState) physBits() int64 {
	return a.codedWords*64 + (a.bitLen - a.codedLogical)
}

// tupleEntry mirrors one on-disk tuple-list element; deleted is set when the
// deletion list names its position.
type tupleEntry struct {
	tid     model.TID
	ptr     int64
	deleted bool
}

// Index is an open iVA-file bound to its table.
type Index struct {
	opts  Options
	f     *storage.File
	segs  *storage.SegStore
	codec *signature.Codec
	tbl   *table.Table

	mu         sync.RWMutex
	attrs      []attrState
	attrChain  storage.ChainID
	attrChainB storage.ChainID // shadow attribute-list slot (see Sync)
	attrSlot   int             // slot the last committed superblock points at
	tupleChain storage.ChainID
	tupleBits  int64
	ltid       int
	entries    []tupleEntry // in tid order
	delChain   storage.ChainID
	deleted    int64 // deletion-list length: ltid bits per position
	run        runScratch

	// Stripe checkpoints for the striped filter plan. ckptChain is
	// NoSegment after checkpoint damage was degraded around at open, which
	// disables checkpoint recording: searches scan one origin-anchored
	// stripe.
	ckptChain storage.ChainID
	ckptEvery int64
	ckpts     []checkpoint
	// ckptSynced records are committed, in the chain's first ckptEnd bytes;
	// Sync appends the rest behind them.
	ckptSynced int
	ckptEnd    int64

	// Integrity: the ping-ponged checksum-map chains and the in-memory
	// checksum state (see integrity.go).
	crcChainA storage.ChainID
	crcChainB storage.ChainID
	crcSlot   int
	integ     integrityState
}

// Table returns the table the index is bound to.
func (ix *Index) Table() *table.Table { return ix.tbl }

// Codec returns the signature codec (for diagnostics and tests).
func (ix *Index) Codec() *signature.Codec { return ix.codec }

// Options returns the build options in effect.
func (ix *Index) Options() Options { return ix.opts }

// SetSearchParallelism changes the worker cap of the striped filter plan at
// runtime (0 selects runtime.GOMAXPROCS, 1 = one worker).
// Results are identical at any setting; the differential oracle exercises
// this to prove it.
func (ix *Index) SetSearchParallelism(p int) {
	ix.mu.Lock()
	ix.opts.SearchParallelism = p
	ix.mu.Unlock()
}

// SizeBytes returns the index file's size.
func (ix *Index) SizeBytes() int64 { return ix.f.Size() }

// Entries returns the tuple-list length (live + deleted).
func (ix *Index) Entries() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return int64(len(ix.entries))
}

// Deleted returns the number of deleted tuples awaiting cleaning.
func (ix *Index) Deleted() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.deleted
}

// Live reports whether tid names a non-deleted tuple.
func (ix *Index) Live(tid model.TID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.find(tid)
	return ok
}

// find returns the tuple-list position of the live tuple tid: a binary search
// of the tid-ordered mirror. Caller holds ix.mu.
func (ix *Index) find(tid model.TID) (int64, bool) {
	pos, ok := slices.BinarySearchFunc(ix.entries, tid, func(e tupleEntry, t model.TID) int {
		return cmp.Compare(e.tid, t)
	})
	return int64(pos), ok && !ix.entries[pos].deleted
}

// LiveTIDs returns the ids of all live tuples in tuple-list order.
func (ix *Index) LiveTIDs() []model.TID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]model.TID, 0, len(ix.entries)-int(ix.deleted))
	for _, e := range ix.entries {
		if !e.deleted {
			out = append(out, e.tid)
		}
	}
	return out
}

// DeletedFraction returns deleted/entries, the quantity compared against the
// cleaning trigger threshold β of §V-C.
func (ix *Index) DeletedFraction() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.entries) == 0 {
		return 0
	}
	return float64(ix.deleted) / float64(len(ix.entries))
}

// ListType reports the organization chosen for an attribute (diagnostics
// and the list-selection experiments).
func (ix *Index) ListType(a model.AttrID) (vector.ListType, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(a) >= len(ix.attrs) || !ix.attrs[a].exists {
		return 0, false
	}
	return ix.attrs[a].layout.Type, true
}

// codecFor returns the index's default codec or a fresh one for a
// per-attribute α override.
func (ix *Index) codecFor(alpha float64) (*signature.Codec, error) {
	if alpha == ix.codec.Alpha() {
		return ix.codec, nil
	}
	return signature.NewCodec(gramN, alpha)
}

// elemBits is the width of one tuple-list element.
func (ix *Index) elemBits() int { return ix.ltid + ptrBits }

// maxTID is the largest id the packed tuple list can hold.
func (ix *Index) maxTID() model.TID { return model.TID(uint64(1)<<uint(ix.ltid) - 1) }

// chooseLayout builds the layout for one attribute from catalog statistics.
// codec is the attribute's signature codec (the index default, or one built
// for a per-attribute α override).
func chooseLayout(opts Options, codec *signature.Codec, info table.AttrInfo, ltid int, tupleEntries int64) (vector.Layout, *vaq.Quantizer, error) {
	alpha := codec.Alpha()
	switch info.Kind {
	case model.KindText:
		lnum := bitio.BitsFor(uint64(info.MaxStrs)) + 1 // headroom for growth
		if lnum < 2 {
			lnum = 2
		}
		if lnum > 16 {
			lnum = 16
		}
		typ := vector.ChooseText(ltid, lnum, info.DF, info.Str, tupleEntries, 0)
		if opts.ForceType != 0 {
			typ = opts.ForceType
			if typ == vector.TypeIV {
				typ = vector.TypeI
			}
		}
		return vector.Layout{
			Type: typ, Kind: model.KindText,
			LTid: ltid, LNum: lnum, Codec: codec,
		}, nil, nil
	case model.KindNumeric:
		vecBits := 8 * int(math.Ceil(alpha*numericBytes))
		if vecBits < 2 {
			vecBits = 2
		}
		if vecBits > 63 {
			vecBits = 63
		}
		min, max := info.Min, info.Max
		if !info.HasDomain {
			min, max = 0, 0
		}
		if opts.AbsoluteDomains {
			min, max = -absDomainBound, absDomainBound
		}
		quant, err := vaq.New(min, max, vecBits)
		if err != nil {
			return vector.Layout{}, nil, err
		}
		typ := vector.ChooseNumeric(ltid, vecBits, info.DF, tupleEntries)
		if opts.ForceType != 0 {
			typ = opts.ForceType
			if typ == vector.TypeII || typ == vector.TypeIII {
				typ = vector.TypeI
			}
		}
		return vector.Layout{
			Type: typ, Kind: model.KindNumeric,
			LTid: ltid, VecBits: vecBits, NDFCode: quant.NDFReserved(),
		}, quant, nil
	default:
		return vector.Layout{}, nil, fmt.Errorf("core: unknown kind %v", info.Kind)
	}
}

// --- superblock and attribute-list persistence -----------------------------

// writeSuperblock commits the current state, recording slot as the valid
// attribute-list copy and crcSlot as the valid checksum-map copy. It is the
// last write of a Sync (see Sync).
func (ix *Index) writeSuperblock(slot, crcSlot int) error {
	var b [superblockSize]byte
	binary.LittleEndian.PutUint32(b[0:], indexMagic)
	binary.LittleEndian.PutUint32(b[4:], indexVersion)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(ix.opts.Alpha))
	binary.LittleEndian.PutUint32(b[16:], gramN)
	b[20] = byte(ix.ltid)
	b[21] = ptrBits
	binary.LittleEndian.PutUint32(b[24:], uint32(ix.tupleChain))
	binary.LittleEndian.PutUint64(b[28:], uint64(ix.tupleBits))
	binary.LittleEndian.PutUint64(b[36:], uint64(len(ix.entries)))
	binary.LittleEndian.PutUint64(b[44:], uint64(ix.deleted))
	binary.LittleEndian.PutUint32(b[52:], uint32(ix.attrChain))
	binary.LittleEndian.PutUint32(b[56:], uint32(len(ix.attrs)))
	binary.LittleEndian.PutUint32(b[60:], numericBytes)
	binary.LittleEndian.PutUint32(b[64:], storage.SegGeometry)
	binary.LittleEndian.PutUint32(b[68:], uint32(ix.ckptChain))
	binary.LittleEndian.PutUint32(b[72:], uint32(ix.ckptEvery))
	binary.LittleEndian.PutUint32(b[76:], uint32(ix.attrChainB))
	b[80] = byte(slot)
	binary.LittleEndian.PutUint32(b[84:], uint32(len(ix.ckpts)))
	binary.LittleEndian.PutUint32(b[sbCRCChainAOff:], uint32(ix.crcChainA))
	binary.LittleEndian.PutUint32(b[sbCRCChainBOff:], uint32(ix.crcChainB))
	b[sbCRCSlotOff] = byte(crcSlot)
	binary.LittleEndian.PutUint32(b[sbDelChainOff:], uint32(ix.delChain))
	binary.LittleEndian.PutUint32(b[sbCRCOff:], storage.Checksum(b[:sbCRCOff]))
	return ix.f.WriteAt(b[:], 0)
}

// attrElemSize is the fixed on-disk size of one attribute-list element.
const attrElemSize = 64

func (ix *Index) writeAttrList(chain storage.ChainID) error {
	buf := make([]byte, attrElemSize*len(ix.attrs))
	for i, a := range ix.attrs {
		e := buf[i*attrElemSize:]
		if !a.exists {
			e[0] = 0
			continue
		}
		e[0] = byte(a.layout.Type)
		e[1] = byte(a.layout.Kind)
		e[2] = byte(a.layout.LTid)
		e[3] = byte(a.layout.LNum)
		e[4] = byte(a.layout.VecBits)
		e[5] = a.codecID
		binary.LittleEndian.PutUint32(e[8:], uint32(a.chain))
		binary.LittleEndian.PutUint64(e[12:], uint64(a.bitLen))
		binary.LittleEndian.PutUint64(e[20:], a.layout.NDFCode)
		if a.quant != nil {
			min, max := a.quant.Domain()
			binary.LittleEndian.PutUint64(e[28:], math.Float64bits(min))
			binary.LittleEndian.PutUint64(e[36:], math.Float64bits(max))
		}
		binary.LittleEndian.PutUint64(e[44:], math.Float64bits(a.alpha))
		// The coded-region word count as u32 caps one attribute's sealed
		// blocks at 32 GiB — far beyond the packed tid widths anyway.
		binary.LittleEndian.PutUint32(e[56:], uint32(a.codedWords))
	}
	return ix.segs.WriteAt(chain, buf, 0)
}

func (ix *Index) readAttrList(n int, chain storage.ChainID) error {
	buf := make([]byte, attrElemSize*n)
	if err := ix.segs.ReadAt(chain, buf, 0); err != nil {
		return err
	}
	ix.attrs = make([]attrState, n)
	for i := 0; i < n; i++ {
		e := buf[i*attrElemSize:]
		if e[0] == 0 {
			continue
		}
		a := attrState{exists: true}
		a.layout.Type = vector.ListType(e[0])
		a.layout.Kind = model.Kind(e[1])
		a.layout.LTid = int(e[2])
		a.layout.LNum = int(e[3])
		a.layout.VecBits = int(e[4])
		a.chain = storage.ChainID(binary.LittleEndian.Uint32(e[8:]))
		a.bitLen = int64(binary.LittleEndian.Uint64(e[12:]))
		a.layout.NDFCode = binary.LittleEndian.Uint64(e[20:])
		a.alpha = math.Float64frombits(binary.LittleEndian.Uint64(e[44:]))
		a.codecID = e[5]
		a.codedWords = int64(binary.LittleEndian.Uint32(e[56:]))
		if _, ok := vector.CodecByID(a.codecID); !ok {
			return fmt.Errorf("core: attr %d: unknown codec %d", i, a.codecID)
		}
		if a.codecID == vector.CodecRaw && a.codedWords != 0 {
			return fmt.Errorf("core: attr %d: raw codec with %d coded words", i, a.codedWords)
		}
		if a.alpha == 0 {
			a.alpha = ix.opts.Alpha
		}
		if a.layout.Kind == model.KindText {
			codec, err := ix.codecFor(a.alpha)
			if err != nil {
				return fmt.Errorf("core: attr %d codec: %w", i, err)
			}
			a.layout.Codec = codec
		} else {
			min := math.Float64frombits(binary.LittleEndian.Uint64(e[28:]))
			max := math.Float64frombits(binary.LittleEndian.Uint64(e[36:]))
			q, err := vaq.New(min, max, a.layout.VecBits)
			if err != nil {
				return fmt.Errorf("core: attr %d quantizer: %w", i, err)
			}
			a.quant = q
		}
		if err := a.layout.Validate(); err != nil {
			return fmt.Errorf("core: attr %d: %w", i, err)
		}
		ix.attrs[i] = a
	}
	return nil
}

// Sync checkpoints all metadata (attribute list, stripe checkpoints,
// superblock) and flushes.
//
// Crash consistency: the superblock is the single commit point. The
// attribute list — whose per-attribute bit lengths define how far each
// vector chain is valid — is written to the slot the committed superblock
// does NOT reference (ping-pong between attrChain and attrChainB); the
// tuple, deletion and vector lists and the checkpoint chain took every write
// since the last Sync behind their committed ends, whose lengths and counts
// the superblock holds. A crash anywhere before the superblock write
// therefore leaves the previously committed state fully intact, and the
// superblock itself is one page-atomic write: reopening always recovers
// exactly the last synced prefix.
func (ix *Index) Sync() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	target := 1 - ix.attrSlot
	if err := ix.writeAttrList(ix.slotChain(target)); err != nil {
		return err
	}
	if err := ix.writeCheckpoints(); err != nil {
		return err
	}
	crcTarget := 1 - ix.crcSlot
	if err := ix.writeCRCMap(ix.crcChain(crcTarget)); err != nil {
		return err
	}
	if err := ix.writeSuperblock(target, crcTarget); err != nil {
		return err
	}
	// The superblock write is durable in the write-through cache, so the
	// on-disk commit now references target: flip before Sync so that even if
	// the flush errors, a retry will not overwrite the committed slot.
	ix.attrSlot = target
	ix.crcSlot = crcTarget
	ix.commitCheckpoints()
	ix.commitIntegrity()
	return ix.f.Sync()
}

// slotChain maps an attribute-list slot number to its chain.
func (ix *Index) slotChain(slot int) storage.ChainID {
	if slot == 0 {
		return ix.attrChain
	}
	return ix.attrChainB
}

// Open attaches to an iVA-file previously built over tbl.
func Open(f *storage.File, tbl *table.Table, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	var b [superblockSize]byte
	if err := f.ReadAt(b[:], 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b[0:]) != indexMagic {
		return nil, fmt.Errorf("core: bad index magic")
	}
	// The version word gates everything: no other field is read, and nothing
	// is written, for a format this build does not speak.
	if version := binary.LittleEndian.Uint32(b[4:]); version != indexVersion {
		return nil, fmt.Errorf("core: index format version %d unsupported: this build reads only version %d", version, indexVersion)
	}
	// Everything below trusts the superblock fields, so the trailer is
	// checked before any of them are used.
	if storage.Checksum(b[:sbCRCOff]) != binary.LittleEndian.Uint32(b[sbCRCOff:]) {
		return nil, &storage.CorruptionError{File: "iva.idx", Offset: 0,
			Segment: storage.NoCorruptSegment, Detail: "superblock checksum mismatch"}
	}
	opts.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	// The superblock fields drive allocations below, so a corrupt or hostile
	// file must fail validation here rather than panic or exhaust memory.
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: superblock: %w", err)
	}
	if n := binary.LittleEndian.Uint32(b[16:]); n != gramN {
		return nil, fmt.Errorf("core: superblock: gram length n = %d, want %d", n, gramN)
	}
	if r := binary.LittleEndian.Uint32(b[60:]); r != numericBytes {
		return nil, fmt.Errorf("core: superblock: numeric bytes = %d, want %d", r, numericBytes)
	}
	if g := binary.LittleEndian.Uint32(b[64:]); g != storage.SegGeometry {
		return nil, fmt.Errorf("core: superblock: segment geometry %#x, want %#x", g, storage.SegGeometry)
	}
	codec, err := signature.NewCodec(gramN, opts.Alpha)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		opts:       opts,
		f:          f,
		segs:       storage.NewSegStore(f, superblockSize),
		codec:      codec,
		tbl:        tbl,
		ltid:       int(b[20]),
		tupleChain: storage.ChainID(binary.LittleEndian.Uint32(b[24:])),
		tupleBits:  int64(binary.LittleEndian.Uint64(b[28:])),
		deleted:    int64(binary.LittleEndian.Uint64(b[44:])),
		delChain:   storage.ChainID(binary.LittleEndian.Uint32(b[sbDelChainOff:])),
		attrChain:  storage.ChainID(binary.LittleEndian.Uint32(b[52:])),
		ckptChain:  storage.ChainID(binary.LittleEndian.Uint32(b[68:])),
		ckptEvery:  opts.CheckpointEvery,
		attrChainB: storage.ChainID(binary.LittleEndian.Uint32(b[76:])),
		attrSlot:   int(b[80]),
		crcChainA:  storage.ChainID(binary.LittleEndian.Uint32(b[sbCRCChainAOff:])),
		crcChainB:  storage.ChainID(binary.LittleEndian.Uint32(b[sbCRCChainBOff:])),
		crcSlot:    int(b[sbCRCSlotOff]),
	}
	if pb := int(b[21]); pb != ptrBits {
		return nil, fmt.Errorf("core: index built with %d ptr bits, binary uses %d", pb, ptrBits)
	}
	if ix.ltid < 1 || ix.ltid > 32 {
		return nil, fmt.Errorf("core: superblock ltid %d outside [1,32]", ix.ltid)
	}
	entryCount := int64(binary.LittleEndian.Uint64(b[36:]))
	nattrs := int(binary.LittleEndian.Uint32(b[56:]))
	if ix.tupleBits < 0 || ix.tupleBits > 8*f.Size() {
		return nil, fmt.Errorf("core: superblock tuple list of %d bits exceeds file", ix.tupleBits)
	}
	if entryCount < 0 || entryCount*int64(ix.elemBits()) > ix.tupleBits {
		return nil, fmt.Errorf("core: superblock entry count %d exceeds tuple list", entryCount)
	}
	if ix.deleted < 0 || ix.deleted > entryCount {
		return nil, fmt.Errorf("core: superblock deleted count %d exceeds entries", ix.deleted)
	}
	if nattrs < 0 || int64(nattrs)*attrElemSize > f.Size() {
		return nil, fmt.Errorf("core: superblock attribute count %d exceeds file", nattrs)
	}
	if every := int64(binary.LittleEndian.Uint32(b[72:])); every > 0 {
		ix.ckptEvery = every
	}
	if ix.attrSlot != 0 && ix.attrSlot != 1 {
		return nil, fmt.Errorf("core: superblock attribute slot %d", ix.attrSlot)
	}
	if ix.crcSlot != 0 && ix.crcSlot != 1 {
		return nil, fmt.Errorf("core: superblock checksum slot %d", ix.crcSlot)
	}
	// The committed checksum map loads before any chain data is read so the
	// first-touch verification hooks below have words to check against.
	ix.initIntegrity(false)
	if err := ix.loadCRCMap(ix.crcChain(ix.crcSlot)); err != nil {
		return nil, err
	}
	// The attribute list is read through segs.ReadAt (no reader hook), and
	// corrupt layout metadata cannot be degraded around — verify its
	// committed segments up front in both modes.
	if err := ix.verifyChain(ix.slotChain(ix.attrSlot)); err != nil {
		return nil, err
	}
	if err := ix.readAttrList(nattrs, ix.slotChain(ix.attrSlot)); err != nil {
		return nil, err
	}
	if err := ix.loadCodecDirs(); err != nil {
		return nil, err
	}
	if err := ix.loadTupleList(entryCount); err != nil {
		return nil, err
	}
	if err := ix.loadDeletions(); err != nil {
		return nil, err
	}
	if err := ix.readCheckpoints(int(binary.LittleEndian.Uint32(b[84:]))); err != nil {
		return nil, err
	}
	return ix, nil
}

// loadCodecDirs rebuilds every packed attribute's block directory by walking
// the self-describing block headers (the directory is deliberately not
// persisted: checkpoint chains may be dropped wholesale after damage, so
// block metadata cannot depend on them). The walk reads through a verifying
// chain reader, so segment checksums cover the block headers. On damage the
// attribute is marked dirBroken — reads degrade to zero bounds, writes
// demand a rebuild.
func (ix *Index) loadCodecDirs() error {
	for i := range ix.attrs {
		st := &ix.attrs[i]
		if !st.exists || st.codecID == vector.CodecRaw {
			continue
		}
		dir, logical, err := ix.walkCodecDir(st)
		if err == nil && logical > st.bitLen {
			err = &storage.CorruptionError{File: "iva.idx", Offset: -1,
				Segment: storage.NoCorruptSegment,
				Detail:  fmt.Sprintf("attr %d blocks decode to %d bits, list holds %d", i, logical, st.bitLen)}
		}
		if err != nil {
			var ce *storage.CorruptionError
			if !errors.As(err, &ce) {
				return err
			}
			st.dir, st.codedLogical = nil, 0
			st.dirBroken = true
			ix.integ.droppedCodecDirs++
			continue
		}
		st.dir, st.codedLogical = dir, logical
	}
	return nil
}

func (ix *Index) walkCodecDir(st *attrState) ([]vector.BlockMeta, int64, error) {
	r := storage.NewChainBitReader(ix.segs, st.chain, st.codedWords*64)
	defer r.Close()
	ix.attachVerify(r, st.chain)
	return vector.WalkBlocks(r, st.codedWords)
}

// termSource wraps an attribute's physical chain reader (opened over
// physBits()) into the logical BitSource cursors consume. Codec-0 lists
// return the reader itself; packed lists return a BlockSource over the
// block directory. A dirBroken packed list returns the typed corruption
// error the caller's degrade-or-fail policy already handles.
func (ix *Index) termSource(st *attrState, rd *storage.ChainBitReader) (vector.BitSource, error) {
	if st.codecID == vector.CodecRaw {
		return rd, nil
	}
	if st.dirBroken {
		return nil, &storage.CorruptionError{File: "iva.idx", Offset: -1,
			Segment: storage.NoCorruptSegment,
			Detail:  "packed vector list with dropped block directory"}
	}
	return vector.NewBlockSource(st.layout, rd, st.dir, st.codedWords, st.bitLen), nil
}

// loadTupleList reads the on-disk tuple list into the in-memory mirror, which
// every search and lookup reads from then on. Its segments verify against the
// checksum map on the way, so tuple-list damage fails the open.
func (ix *Index) loadTupleList(entryCount int64) error {
	r := storage.NewChainBitReader(ix.segs, ix.tupleChain, ix.tupleBits)
	defer r.Close()
	ix.attachVerify(r, ix.tupleChain)
	ix.entries = make([]tupleEntry, 0, entryCount)
	for i := int64(0); i < entryCount; i++ {
		tid, err := r.ReadBits(ix.ltid)
		if err != nil {
			return err
		}
		ptr, err := r.ReadBits(ptrBits)
		if err != nil {
			return err
		}
		ix.entries = append(ix.entries, tupleEntry{tid: model.TID(tid), ptr: int64(ptr)})
	}
	return nil
}

// loadDeletions applies the committed deletion list to the mirror. A position
// outside the tuple list or named twice fails the open, like any other
// damage to the lists the mirror is read from.
func (ix *Index) loadDeletions() error {
	r := storage.NewChainBitReader(ix.segs, ix.delChain, ix.deleted*int64(ix.ltid))
	defer r.Close()
	ix.attachVerify(r, ix.delChain)
	for i := int64(0); i < ix.deleted; i++ {
		pos, err := r.ReadBits(ix.ltid)
		if err != nil {
			return err
		}
		if pos >= uint64(len(ix.entries)) || ix.entries[pos].deleted {
			return &storage.CorruptionError{File: "iva.idx", Offset: -1, Segment: storage.NoCorruptSegment,
				Detail: fmt.Sprintf("deletion list entry %d names position %d of %d, or one named before", i, pos, len(ix.entries))}
		}
		ix.entries[pos].deleted = true
	}
	return nil
}
