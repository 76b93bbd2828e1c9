package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestFormatGate pins the format policy (FORMAT.md § Format policy) at the
// table layer. The header's flag and watermark words are its format word, read
// before the header checksum, so Open refuses every value but the one New
// writes — the previous word 0x1 (kind bytes in every field), and every value
// that would have declared some records trailer-free — naming what it found,
// without a device write. Past the gate, a flipped bit anywhere else in the
// checksummed header is a *storage.CorruptionError, also without a write.
// DecodeCatalog likewise reads "CTL4" blobs only.
func TestFormatGate(t *testing.T) {
	pool := storage.NewPool(0, 1<<20)
	dev := storage.NewMemDevice()
	cat := NewCatalog()
	tb, err := New(storage.NewFile(pool, dev), cat)
	if err != nil {
		t.Fatal(err)
	}
	rebuildFixture(t, tb, cat, 50, 11)
	if err := tb.Sync(); err != nil {
		t.Fatal(err)
	}
	clean := deviceBytes(t, dev)
	dataEnd := binary.LittleEndian.Uint64(clean[24:32])

	for _, tc := range []struct {
		flags uint32
		mark  uint64
	}{
		{0, headerSize},        // flag bits clear
		{0, 0},                 // what a header that predates the words holds
		{0, dataEnd},           // "every record is trailer-free"
		{0x1, headerSize},      // the previous format: u32 ids and a kind byte per field
		{0x1, dataEnd},         // the same, watermark raised over every record
		{tableFormat, dataEnd}, // current flags, watermark raised over every record
		{tableFormat, headerSize + 1},
		{tableFormat, 0},
		{tableFormat | 4, headerSize}, // a flag bit this build does not know
	} {
		name := fmt.Sprintf("flags=%#x/watermark=%d", tc.flags, tc.mark)
		image := append([]byte(nil), clean...)
		binary.LittleEndian.PutUint32(image[32:36], tc.flags)
		binary.LittleEndian.PutUint64(image[36:44], tc.mark)
		if _, err := dev.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		trk := storage.NewTrackDevice(dev)
		trk.Arm()
		_, err := Open(storage.NewFile(storage.NewPool(0, 1<<20), trk), cat)
		if err == nil {
			t.Fatalf("%s: Open accepted the header", name)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("flags %#x", tc.flags)) ||
			!strings.Contains(msg, fmt.Sprintf("watermark %d", tc.mark)) ||
			!strings.Contains(msg, fmt.Sprintf("watermark %d", headerSize)) {
			t.Fatalf("%s: error does not name the format found and the one supported: %v", name, err)
		}
		if w := trk.TakeDirty(); len(w) != 0 {
			t.Fatalf("%s: refused open wrote %v", name, w)
		}
		if !bytes.Equal(deviceBytes(t, dev), image) {
			t.Fatalf("%s: refused open changed the file", name)
		}
	}

	for off := 0; off < headerSize; off++ {
		if off >= 32 && off < headerCRCOff || off >= headerCRCOff+4 {
			continue // the format words (above), the unread pad
		}
		image := append([]byte(nil), clean...)
		image[off] ^= 1 << (off % 8)
		if _, err := dev.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		trk := storage.NewTrackDevice(dev)
		trk.Arm()
		_, err := Open(storage.NewFile(storage.NewPool(0, 1<<20), trk), cat)
		var ce *storage.CorruptionError
		switch {
		case off < 4:
			if err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("header byte %d flipped: err %v, want bad magic", off, err)
			}
		case !errors.As(err, &ce):
			t.Fatalf("header byte %d flipped: err %v, want *storage.CorruptionError", off, err)
		}
		if w := trk.TakeDirty(); len(w) != 0 {
			t.Fatalf("header byte %d flipped: refused open wrote %v", off, w)
		}
	}
	if _, err := dev.WriteAt(clean, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(storage.NewFile(storage.NewPool(0, 1<<20), dev), cat); err != nil {
		t.Fatalf("clean header refused: %v", err)
	}

	// A "CTLG" catalog: the same entries, the older magic, no trailer — and,
	// for a forger who knows the current layout, the trailer kept.
	blob := cat.Encode()
	for _, ctlg := range [][]byte{
		append([]byte("GLTC"), blob[4:len(blob)-4]...),
		append([]byte("GLTC"), blob[4:]...),
	} {
		_, err := DecodeCatalog(ctlg)
		if err == nil {
			t.Fatal("DecodeCatalog accepted a CTLG blob")
		}
		if msg := err.Error(); !strings.Contains(msg, "0x43544c47") || !strings.Contains(msg, "CTL4") {
			t.Fatalf("error does not name the format found and the one supported: %v", err)
		}
	}
	if _, err := DecodeCatalog(blob); err != nil {
		t.Fatalf("current catalog refused: %v", err)
	}
}
