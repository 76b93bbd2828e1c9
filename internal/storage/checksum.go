package storage

import (
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C polynomial table. Castagnoli is the checksum the
// trailers use everywhere: the Go runtime dispatches it to the
// SSE4.2 / ARMv8 CRC instructions, so verifying a 4 KiB segment costs well
// under a microsecond and can sit on the buffer-pool miss path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ChecksumUpdate continues a running CRC32C over p.
func ChecksumUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// ChecksumUpdateUint64 continues a running CRC32C over the eight
// little-endian bytes of v — what ChecksumUpdate gives for them, without a
// slice the caller would have to heap-allocate (crc32.Update dispatches
// through a function value, so its argument escapes).
func ChecksumUpdateUint64(crc uint32, v uint64) uint32 {
	crc = ^crc
	for i := 0; i < 8; i++ {
		crc = castagnoli[byte(crc)^byte(v)] ^ crc>>8
		v >>= 8
	}
	return ^crc
}

// NoCorruptSegment is the CorruptionError.Segment value for damage outside
// the index segment array (table records, the catalog, the superblock).
const NoCorruptSegment = uint32(0xFFFFFFFF)

// CorruptionError reports a checksum mismatch: the bytes at File/Offset do
// not match the CRC32C trailer the committed metadata records for
// them. A corrupt vector-list segment merely widens that segment's lower
// bounds to zero (see DESIGN.md §3.8), while corrupt table records and
// tuple-list segments fail the query because refinement cannot run without
// them.
type CorruptionError struct {
	// File is the store-relative file name ("iva.idx", "table.swt",
	// "catalog.bin").
	File string
	// Offset is the byte offset of the damaged region within File.
	Offset int64
	// Segment is the index segment id, or NoCorruptSegment when the damage
	// is not inside the segment array.
	Segment uint32
	// Detail names the structure that failed verification.
	Detail string
}

func (e *CorruptionError) Error() string {
	if e.Segment != NoCorruptSegment {
		return fmt.Sprintf("storage: corruption in %s at offset %d (segment %d): %s",
			e.File, e.Offset, e.Segment, e.Detail)
	}
	return fmt.Sprintf("storage: corruption in %s at offset %d: %s", e.File, e.Offset, e.Detail)
}
