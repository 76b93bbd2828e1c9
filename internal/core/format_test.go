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
// store's with nothing reported. The table header's format word is refused
// the same way.
func TestFormatGate(t *testing.T) {
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16}, false, 48)

	for _, version := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 0xFFFFFFFF} {
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

	// The table's header word gates the same way: the previous word 0x1 (a
	// kind byte in every field) is refused by name.
	t.Run("table-word", func(t *testing.T) {
		clean := imageOf(t, cf.tblDev)
		defer cf.tblDev.WriteAt(clean, 0)
		image := append([]byte(nil), clean...)
		binary.LittleEndian.PutUint32(image[32:], 0x1)
		if _, err := cf.tblDev.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		trk := storage.NewTrackDevice(cf.tblDev)
		trk.Arm()
		_, err := table.Open(storage.NewFile(storage.NewPool(0, 64<<10), trk), cf.cat)
		if err == nil || !strings.Contains(err.Error(), "flags 0x1") || !strings.Contains(err.Error(), "flags 0x3") {
			t.Fatalf("table.Open of a flags-0x1 header: %v, want a refusal naming both words", err)
		}
		if w := trk.TakeDirty(); len(w) != 0 || !bytes.Equal(imageOf(t, cf.tblDev), image) {
			t.Fatalf("refused open wrote %v", w)
		}
	})

	// The sweeps. CRC32C catches every single-bit error in what it covers,
	// so one flip per byte probes that the byte is covered at all; bytes that
	// are interpreted before any checksum can vouch for them — superblock
	// fields, segment headers (next pointer, size byte, magic), record length
	// words — get all eight.
	unguarded := make(map[int64]bool) // index-file offsets of superblock fields and segment headers
	for off := int64(0); off < sbCRCOff+4; off++ {
		unguarded[off] = true
	}
	headers := segmentHeaders(cf.snapshot)
	if len(headers) < 8 {
		t.Fatalf("page walk found %d segment headers", len(headers))
	}
	for _, seg := range headers {
		for off := seg; off < seg+storage.SegHeaderLen; off++ {
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
	t.Run("splices", func(t *testing.T) { spliceCases(t) })
	t.Run("table-flips", func(t *testing.T) {
		clean := imageOf(t, cf.tblDev)
		defer cf.tblDev.WriteAt(clean, 0)
		ix, closeFiles := cf.open(t, storage.NewPool(0, 64<<10), Options{})
		lengthWord := make(map[int64]bool)
		var end int64 // of the last record's trailer
		for i, e := range ix.entries {
			n, k := binary.Uvarint(clean[e.ptr:])
			for off := e.ptr; off < e.ptr+int64(k) && !(sample && i%4 != 0); off++ {
				lengthWord[off] = true
			}
			end = max(end, e.ptr+int64(k)+int64(n)+4)
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

// segmentHeaders lists the file offsets of the segment headers of an index
// image by walking its pages: a page's first header carries the size of every
// segment in the page (FORMAT.md § Segments), so the walk needs no chain.
func segmentHeaders(image []byte) []int64 {
	isHeader := func(off int64, class byte) bool {
		h := image[off:]
		return h[4] == class && h[5] == 'M' && h[6] == 'G' && h[7] == 'S'
	}
	var out []int64
	for page := int64(superblockSize); page+superblockSize <= int64(len(image)); page += superblockSize {
		class := image[page+4]
		if class > 5 {
			continue
		}
		for seg := page; seg < page+superblockSize && isHeader(seg, class); seg += 128 << class {
			out = append(out, seg)
		}
	}
	return out
}

// spliceCases redirects one next pointer of a store with page-size segments
// three ways a flip sweep cannot reach (each needs several bits): into the
// payload of a page-size segment, onto a segment of another size's slab page,
// and onto a same-size segment of another list. Each must be refused or
// reported; runOnce fails the test on a silently different top-k.
func spliceCases(t *testing.T) {
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 256}, false, 6000)
	ix, closeFiles := cf.open(t, storage.NewPool(0, 1<<20), Options{})
	chain := func(c storage.ChainID) []storage.SegID {
		ids, err := ix.segs.ChainSegments(c)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	num, txt, tup := chain(ix.attrs[0].chain), chain(ix.attrs[1].chain), chain(ix.tupleChain)
	if len(num) < 7 || len(txt) < 7 || len(tup) < 7 {
		t.Fatalf("fixture chains too short: %d %d %d segments", len(num), len(txt), len(tup))
	}
	offsetOf := ix.segs.SegmentOffset
	cases := []struct {
		name string
		at   int64 // header whose next pointer is redirected
		to   storage.SegID
	}{
		{"into a page-size payload", offsetOf(num[5]), txt[6] + 3},
		{"into a page-size payload, where a smaller segment would be aligned", offsetOf(num[1]), txt[6] + 4},
		{"onto another size's slab", offsetOf(num[2]), txt[2]},
		{"onto a same-size segment of another list", offsetOf(num[5]), txt[6]},
		{"onto a same-size sub-page segment of another list", offsetOf(num[2]), txt[3]},
	}
	closeFiles()
	for _, tc := range cases {
		cf.restore(t)
		var next [4]byte
		binary.LittleEndian.PutUint32(next[:], uint32(tc.to))
		if _, err := cf.idxDev.WriteAt(next[:], tc.at); err != nil {
			t.Fatal(err)
		}
		if !cf.runOnce(t, tc.at, new(int)) {
			t.Errorf("%s: neither refused nor reported", tc.name)
		}
	}
	cf.restore(t)
}
