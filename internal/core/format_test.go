package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// TestFormatGate pins the format policy (FORMAT.md § Format policy) at the
// index layer. Open reads exactly one version: every other version word is
// refused with an error naming it, whether or not the superblock trailer was
// recomputed to match, without a single device write
// — so rewriting the version word can never switch checksums off. With the
// gate holding, the checksums are the whole story: no single-bit flip of the
// index file or of a table record yields a top-k that differs from the clean
// store's with nothing reported.
func TestFormatGate(t *testing.T) {
	const segSize = 128
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16, SegmentSize: segSize}, false, 48)

	for _, version := range []uint32{0, 1, 2, 3, 4, 5, 6, 8, 0xFFFFFFFF} {
		for _, fixCRC := range []bool{false, true} {
			name := fmt.Sprintf("version=%d/crc-recomputed=%v", version, fixCRC)
			cf.restore(t)
			sb := append([]byte(nil), cf.snapshot[:superblockSize]...)
			binary.LittleEndian.PutUint32(sb[4:], version)
			if fixCRC {
				binary.LittleEndian.PutUint32(sb[sbCRCOff:], storage.Checksum(sb[:sbCRCOff]))
			}
			if _, err := cf.idxDev.WriteAt(sb, 0); err != nil {
				t.Fatal(err)
			}
			image := append(sb, cf.snapshot[superblockSize:]...)

			trk := storage.NewTrackDevice(cf.idxDev)
			trk.Arm()
			pool := storage.NewPool(0, 64<<10)
			tblF, idxF := storage.NewFile(pool, cf.tblDev), storage.NewFile(pool, trk)
			tbl, err := table.Open(tblF, cf.cat)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Open(idxF, tbl, Options{})
			if err == nil {
				t.Fatalf("%s: Open accepted the file", name)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d ", version)) ||
				!strings.Contains(msg, fmt.Sprintf("version %d", indexVersion)) {
				t.Fatalf("%s: error does not name the version found and the one supported: %v", name, err)
			}
			tblF.Close()
			idxF.Close()
			if w := trk.TakeDirty(); len(w) != 0 {
				t.Fatalf("%s: refused open wrote %v", name, w)
			}
			if !bytes.Equal(imageOf(t, cf.idxDev), image) {
				t.Fatalf("%s: refused open changed the file", name)
			}
		}
	}

	// The sweeps. CRC32C catches every single-bit error in what it covers,
	// so one flip per byte probes that the byte is covered at all; bytes that
	// are interpreted before any checksum can vouch for them — superblock
	// fields, segment headers, record length words — get all eight.
	unguarded := make(map[int64]bool) // index-file offsets of superblock fields and segment headers
	for off := int64(0); off < sbCRCOff+4; off++ {
		unguarded[off] = true
	}
	for seg := int64(superblockSize); seg < int64(len(cf.snapshot)); seg += segSize {
		for off := seg; off < seg+8; off++ {
			unguarded[off] = true
		}
	}
	// Under the race detector a flip costs ~12× as much: sample the covered
	// bytes and the length words there (and under -short).
	sample := raceEnabled || testing.Short()
	bitsAt := func(off int64, all bool) []uint {
		if all {
			return []uint{0, 1, 2, 3, 4, 5, 6, 7}
		}
		if sample && off%8 != 0 {
			return nil
		}
		return []uint{uint(off % 8)}
	}
	t.Run("index-flips", func(t *testing.T) {
		defer cf.restore(t)
		degraded := 0
		for off := int64(0); off < int64(len(cf.snapshot)); off++ {
			if off == sbCRCOff+4 {
				off = superblockSize // the rest of the superblock page is never read
			}
			for _, bit := range bitsAt(off, unguarded[off]) {
				cf.restore(t)
				cf.flip(t, off, bit)
				if detected := cf.runOnce(t, off, &degraded); cf.committed[off] && !detected {
					t.Fatalf("flip at %d (bit %d): corruption of a checksummed byte was not detected", off, bit)
				}
			}
		}
		if degraded == 0 {
			t.Fatal("sweep never exercised the degraded-read path")
		}
	})
	t.Run("table-flips", func(t *testing.T) {
		clean := imageOf(t, cf.tblDev)
		defer cf.tblDev.WriteAt(clean, 0)
		ix, closeFiles := cf.open(t, storage.NewPool(0, 64<<10), Options{})
		lengthWord := make(map[int64]bool)
		var end int64 // of the last record's trailer
		for i, e := range ix.entries {
			for off := e.ptr; off < e.ptr+4 && !(sample && i%4 != 0); off++ {
				lengthWord[off] = true
			}
			end = max(end, e.ptr+4+int64(binary.LittleEndian.Uint32(clean[e.ptr:]))+4)
		}
		closeFiles()
		refused := 0
		for off := int64(64); off < end; off++ { // records start behind the 64-byte header
			for _, bit := range bitsAt(off, lengthWord[off]) {
				if _, err := cf.tblDev.WriteAt([]byte{clean[off] ^ 1<<bit}, off); err != nil {
					t.Fatal(err)
				}
				if cf.runOnce(t, off, new(int)) {
					refused++
				}
				if _, err := cf.tblDev.WriteAt(clean[off:off+1], off); err != nil {
					t.Fatal(err)
				}
			}
		}
		if refused == 0 {
			t.Fatal("no record flip was ever detected")
		}
	})
}
