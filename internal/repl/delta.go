// Package repl defines the replication wire format and HTTP client of the
// iVA-file store: log-shipped synced-prefix deltas.
//
// The crash-atomic commit makes "what changed between two Syncs" a
// well-defined set of byte ranges per store file: every non-superblock write
// is invisible until the superblock page commits it, so shipping the written
// ranges (bytes snapshotted after the Sync) and applying them with the
// superblock page last reproduces a committed state byte-for-byte. A Delta
// carries those ranges for one generation; a Full delta carries whole files.
//
// A follower asks a primary one question — what follows (epoch, gen)? — and
// the answer is always a Batch: empty when the follower is caught up, the
// deltas that continue its cursor, or one Full delta when nothing can (a new
// replica's zero cursor, another epoch, a cursor the primary's log no longer
// reaches or that a rebuild — which replaces the files, so that in-place
// ranges are meaningless — reset).
//
// Every range carries a CRC32C over its bytes and the whole blob a trailing
// CRC32C, so a follower verifies every byte it is about to apply — and every
// byte it re-reads after applying — against checksums computed on the
// primary. A follower never commits bytes that fail verification.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/sparsewide/iva/internal/storage"
)

// File IDs name the store files inside a delta.
const (
	FileTable   = 0 // table.swt
	FileIndex   = 1 // iva.idx
	FileCatalog = 2 // catalog.bin (always shipped whole)
)

// FileName maps a file ID to the store file name it addresses.
func FileName(id uint8) string {
	switch id {
	case FileTable:
		return "table.swt"
	case FileIndex:
		return "iva.idx"
	case FileCatalog:
		return "catalog.bin"
	}
	return fmt.Sprintf("file-%d", id)
}

const (
	deltaMagic   = 0x44525669 // "iVRD" little-endian
	batchMagic   = 0x42525669 // "iVRB"
	wireVersion  = 1
	maxFiles     = 8
	maxRanges    = 1 << 20
	maxRangeLen  = 1 << 31
	maxBatchSize = 1 << 16
)

// ErrCorruptDelta reports a delta blob that failed structural or checksum
// verification on decode: it must be discarded, never applied.
var ErrCorruptDelta = errors.New("repl: corrupt delta")

// Range is one contiguous byte span of a file with its content checksum.
type Range struct {
	Off  int64
	CRC  uint32 // CRC32C over Data
	Data []byte
}

// FileDelta is every changed range of one store file plus its final size.
type FileDelta struct {
	ID     uint8
	Size   int64 // file size after applying (shrinks apply as a truncate)
	Ranges []Range
}

// Delta is one generation step: applying it to a follower at generation
// Gen-1 (or to anything, when Full) produces the primary's committed state
// at generation Gen of epoch Epoch.
type Delta struct {
	Epoch uint64
	Gen   uint64
	Full  bool
	Files []FileDelta
}

// Bytes returns the total payload bytes the delta carries.
func (d *Delta) Bytes() int64 {
	var n int64
	for _, f := range d.Files {
		for _, r := range f.Ranges {
			n += int64(len(r.Data))
		}
	}
	return n
}

// File returns the FileDelta with the given ID, or nil.
func (d *Delta) File(id uint8) *FileDelta {
	for i := range d.Files {
		if d.Files[i].ID == id {
			return &d.Files[i]
		}
	}
	return nil
}

// Encode serializes the delta with per-range and whole-blob CRC32C.
func (d *Delta) Encode() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, deltaMagic)
	b = binary.LittleEndian.AppendUint32(b, wireVersion)
	b = binary.LittleEndian.AppendUint64(b, d.Epoch)
	b = binary.LittleEndian.AppendUint64(b, d.Gen)
	full := byte(0)
	if d.Full {
		full = 1
	}
	b = append(b, full, byte(len(d.Files)))
	for _, f := range d.Files {
		b = append(b, f.ID)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Ranges)))
		for _, r := range f.Ranges {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
			b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Data)))
			b = binary.LittleEndian.AppendUint32(b, r.CRC)
			b = append(b, r.Data...)
		}
	}
	return binary.LittleEndian.AppendUint32(b, storage.Checksum(b))
}

// DecodeDelta parses and fully verifies a delta blob: structure, the trailing
// whole-blob CRC, and every range's CRC over its carried bytes. Any mismatch
// returns ErrCorruptDelta (wrapped with detail); a decoded delta is therefore
// safe to apply as far as wire integrity goes.
func DecodeDelta(blob []byte) (*Delta, error) {
	corrupt := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", ErrCorruptDelta, fmt.Sprintf(format, args...))
	}
	if len(blob) < 4+4+8+8+2+4 {
		return nil, corrupt("short blob (%d bytes)", len(blob))
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	if storage.Checksum(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, corrupt("blob checksum mismatch")
	}
	if binary.LittleEndian.Uint32(body[0:4]) != deltaMagic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != wireVersion {
		return nil, corrupt("unsupported wire version %d", v)
	}
	d := &Delta{
		Epoch: binary.LittleEndian.Uint64(body[8:16]),
		Gen:   binary.LittleEndian.Uint64(body[16:24]),
	}
	pos := 24
	switch body[pos] {
	case 0:
	case 1:
		d.Full = true
	default:
		return nil, corrupt("bad full flag %d", body[pos])
	}
	pos++
	nfiles := int(body[pos])
	pos++
	if nfiles > maxFiles {
		return nil, corrupt("too many files (%d)", nfiles)
	}
	need := func(n int) bool { return pos+n <= len(body) }
	for i := 0; i < nfiles; i++ {
		if !need(1 + 8 + 4) {
			return nil, corrupt("truncated file header")
		}
		f := FileDelta{ID: body[pos]}
		pos++
		f.Size = int64(binary.LittleEndian.Uint64(body[pos:]))
		pos += 8
		nranges := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if f.Size < 0 || nranges > maxRanges {
			return nil, corrupt("file %d: bad size/range count", f.ID)
		}
		for j := 0; j < nranges; j++ {
			if !need(8 + 8 + 4) {
				return nil, corrupt("truncated range header")
			}
			off := int64(binary.LittleEndian.Uint64(body[pos:]))
			pos += 8
			n := int64(binary.LittleEndian.Uint64(body[pos:]))
			pos += 8
			crc := binary.LittleEndian.Uint32(body[pos:])
			pos += 4
			if off < 0 || n < 0 || n > maxRangeLen || !need(int(n)) {
				return nil, corrupt("file %d range %d: bad span", f.ID, j)
			}
			data := body[pos : pos+int(n)]
			pos += int(n)
			if storage.Checksum(data) != crc {
				return nil, corrupt("file %d range [%d,+%d): range checksum mismatch", f.ID, off, n)
			}
			f.Ranges = append(f.Ranges, Range{Off: off, CRC: crc, Data: data})
		}
		d.Files = append(d.Files, f)
	}
	if pos != len(body) {
		return nil, corrupt("%d trailing bytes", len(body)-pos)
	}
	return d, nil
}

// Batch is the /v1/repl/deltas response: zero or more consecutive deltas
// plus the primary's current generation (so an up-to-date follower still
// learns its lag).
type Batch struct {
	Epoch      uint64
	PrimaryGen uint64
	Deltas     []*Delta
}

// Encode serializes the batch; each member delta keeps its own CRC framing.
func (b *Batch) Encode() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, batchMagic)
	out = binary.LittleEndian.AppendUint32(out, wireVersion)
	out = binary.LittleEndian.AppendUint64(out, b.Epoch)
	out = binary.LittleEndian.AppendUint64(out, b.PrimaryGen)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Deltas)))
	for _, d := range b.Deltas {
		blob := d.Encode()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// EncodeBatchRaw frames already-encoded delta blobs into a batch without
// decoding them — the primary's delta log stores encoded blobs, and their
// internal CRC framing travels as-is.
func EncodeBatchRaw(epoch, primaryGen uint64, blobs [][]byte) []byte {
	size := 4 + 4 + 8 + 8 + 4
	for _, blob := range blobs {
		size += 4 + len(blob)
	}
	out := make([]byte, 0, size) // a Full delta is whole files: copy it once
	out = binary.LittleEndian.AppendUint32(out, batchMagic)
	out = binary.LittleEndian.AppendUint32(out, wireVersion)
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint64(out, primaryGen)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blobs)))
	for _, blob := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// DecodeBatch parses a batch, fully verifying every member delta.
func DecodeBatch(blob []byte) (*Batch, error) {
	corrupt := func(msg string) error { return fmt.Errorf("%w: batch %s", ErrCorruptDelta, msg) }
	if len(blob) < 4+4+8+8+4 {
		return nil, corrupt("short")
	}
	if binary.LittleEndian.Uint32(blob[0:4]) != batchMagic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != wireVersion {
		return nil, corrupt("bad version")
	}
	b := &Batch{
		Epoch:      binary.LittleEndian.Uint64(blob[8:16]),
		PrimaryGen: binary.LittleEndian.Uint64(blob[16:24]),
	}
	count := int(binary.LittleEndian.Uint32(blob[24:28]))
	if count > maxBatchSize {
		return nil, corrupt("too many deltas")
	}
	pos := 28
	for i := 0; i < count; i++ {
		if pos+4 > len(blob) {
			return nil, corrupt("truncated")
		}
		n := int(binary.LittleEndian.Uint32(blob[pos:]))
		pos += 4
		if n < 0 || pos+n > len(blob) {
			return nil, corrupt("truncated delta")
		}
		d, err := DecodeDelta(blob[pos : pos+n])
		if err != nil {
			return nil, err
		}
		pos += n
		b.Deltas = append(b.Deltas, d)
	}
	if pos != len(blob) {
		return nil, corrupt("trailing bytes")
	}
	return b, nil
}
