package iva

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/storage"
)

// TestFormatGate pins the format policy (FORMAT.md § Format policy) end to
// end: a store whose index version word, table header format words or
// catalog magic name any format but the current one does not open — with the
// superblock trailer recomputed to match or left stale — the error names what
// was found, no device sees a write, and the directory is byte-identical
// afterwards; a follower start on such a replica is refused the same way. A
// table header counter flipped under the current word fails its checksum the
// same way.
// (internal/core's TestFormatGate holds the bit-flip sweeps that show the
// checksums behind the gate suffice.)
func TestFormatGate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, 60)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	clean := readDir(t, dir)

	type tamper struct {
		name string
		file string
		edit func(b []byte) []byte
		want []string // substrings of the error
	}
	var cases []tamper
	for _, version := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 0xFFFFFFFF} {
		for _, fixCRC := range []bool{false, true} {
			cases = append(cases, tamper{
				name: fmt.Sprintf("index-version=%d/crc-recomputed=%v", version, fixCRC),
				file: indexFileName,
				edit: func(b []byte) []byte {
					binary.LittleEndian.PutUint32(b[4:], version)
					if fixCRC { // the superblock trailer at byte 104 covers [0, 104)
						binary.LittleEndian.PutUint32(b[104:], storage.Checksum(b[:104]))
					}
					return b
				},
				want: []string{fmt.Sprintf("version %d ", version), "version 11"},
			})
		}
	}
	tableWords := func(flags uint32, mark func(dataEnd uint64) uint64) func(b []byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[32:36], flags)
			binary.LittleEndian.PutUint64(b[36:44], mark(binary.LittleEndian.Uint64(b[24:32])))
			return b
		}
	}
	cases = append(cases,
		tamper{"table-flag-clear", tableFileName,
			tableWords(0, func(uint64) uint64 { return 64 }), []string{"flags 0x0", "flags 0x3"}},
		tamper{"table-previous-word", tableFileName,
			tableWords(1, func(uint64) uint64 { return 64 }), []string{"flags 0x1", "flags 0x3"}},
		tamper{"table-watermark-at-data-end", tableFileName,
			tableWords(3, func(dataEnd uint64) uint64 { return dataEnd }), []string{"watermark", "watermark 64"}},
		tamper{"table-header-flip", tableFileName,
			func(b []byte) []byte { b[8] ^= 1; return b }, []string{"table.swt", "header checksum mismatch"}},
		tamper{"catalog-CTLG", catalogFileName,
			func(b []byte) []byte { return append([]byte("GLTC"), b[4:len(b)-4]...) }, []string{"0x43544c47", "CTL4"}},
	)

	for _, tc := range cases {
		image := tc.edit(append([]byte(nil), clean[tc.file]...))
		if err := os.WriteFile(filepath.Join(dir, tc.file), image, 0o644); err != nil {
			t.Fatal(err)
		}
		var devs []*storage.TrackDevice
		st, err := Open(dir, Options{
			deviceHook: func(_ string, dev storage.Device) storage.Device {
				trk := storage.NewTrackDevice(dev)
				trk.Arm()
				devs = append(devs, trk)
				return trk
			}})
		if err == nil {
			st.Close()
			t.Fatalf("%s: Open accepted the store", tc.name)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error does not name the format found and the one supported (%q missing): %v", tc.name, want, err)
			}
		}
		for _, trk := range devs {
			if w := trk.TakeDirty(); len(w) != 0 {
				t.Fatalf("%s: refused open wrote %v", tc.name, w)
			}
			trk.Close()
		}
		after := readDir(t, dir)
		if len(after) != len(clean) {
			t.Fatalf("%s: refused open left %d files, store has %d", tc.name, len(after), len(clean))
		}
		for file, b := range after {
			want := clean[file]
			if file == tc.file {
				want = image
			}
			if !bytes.Equal(b, want) {
				t.Fatalf("%s: refused open changed %s", tc.name, file)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, tc.file), clean[tc.file], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A follower restarting on a replica of the previous index format meets
	// the same gate before its poll loop starts, and leaves the replica as it
	// found it.
	image := append([]byte(nil), clean[indexFileName]...)
	binary.LittleEndian.PutUint32(image[4:], 10)
	if err := os.WriteFile(filepath.Join(dir, indexFileName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := saveFollowerState(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	replica := readDir(t, dir)
	fol, err := openFollower(dir, localSource{}, FollowerOptions{}, Options{})
	if err == nil {
		fol.Close()
		t.Fatal("follower opened a version-10 replica")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 10 ") || !strings.Contains(msg, "version 11") {
		t.Fatalf("follower refusal does not name both versions: %v", err)
	}
	for file, b := range readDir(t, dir) {
		if !bytes.Equal(b, replica[file]) {
			t.Fatalf("refused follower open changed %s", file)
		}
	}
	if err := os.Remove(filepath.Join(dir, replFollowerStateFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFileName), clean[indexFileName], 0o644); err != nil {
		t.Fatal(err)
	}

	// The untampered store still opens.
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("clean store refused: %v", err)
	}
	st.Close()
}

// readDir returns the content of every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}
