package storage

import (
	"errors"
	"math/rand"
	"testing"
)

func TestWriteBitsAtOverwritesInPlace(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	// Lay down 100 13-bit fields.
	var bw bitWriter
	for i := 0; i < 100; i++ {
		bw.writeBits(uint64(i), 13)
	}
	bitLen, err := AppendBits(s, c, 0, bw.buf, bw.n)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite field 37 (the tombstone pattern of the tuple list).
	if err := WriteBitsAt(s, c, 37*13, 0x1FFF, 13); err != nil {
		t.Fatal(err)
	}
	// And field 0 with zero.
	if err := WriteBitsAt(s, c, 0, 0, 13); err != nil {
		t.Fatal(err)
	}
	r := NewChainBitReader(s, c, bitLen)
	for i := 0; i < 100; i++ {
		got, err := r.ReadBits(13)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(i)
		switch i {
		case 37:
			want = 0x1FFF
		case 0:
			want = 0
		}
		if got != want {
			t.Fatalf("field %d = %x, want %x", i, got, want)
		}
	}
}

func TestWriteBitsAtRandomized(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	rng := rand.New(rand.NewSource(55))
	const fields, width = 200, 11
	vals := make([]uint64, fields)
	var bw bitWriter
	for i := range vals {
		vals[i] = rng.Uint64() & (1<<width - 1)
		bw.writeBits(vals[i], width)
	}
	bitLen, err := AppendBits(s, c, 0, bw.buf, bw.n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(fields)
		vals[i] = rng.Uint64() & (1<<width - 1)
		if err := WriteBitsAt(s, c, int64(i*width), vals[i], width); err != nil {
			t.Fatal(err)
		}
	}
	r := NewChainBitReader(s, c, bitLen)
	for i, want := range vals {
		got, err := r.ReadBits(width)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("field %d = %x, want %x", i, got, want)
		}
	}
}

func TestWriteBitsAtValidation(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	if err := WriteBitsAt(s, c, 0, 0, 65); err == nil {
		t.Fatal("width 65 accepted")
	}
}

func TestFaultDevice(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), 2)
	if _, err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1)
	if _, err := d.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("budget exhausted but err = %v", err)
	}
	d.Reset(-1)
	if _, err := d.ReadAt(p, 0); err != nil {
		t.Fatalf("unlimited budget failed: %v", err)
	}
	d.Trip()
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("tripped Sync err = %v", err)
	}
	if err := d.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("tripped Truncate err = %v", err)
	}
	if d.Size() != 1 {
		t.Fatalf("Size = %d", d.Size())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBitsEmpty(t *testing.T) {
	pool := NewPool(256, 1<<20)
	s := NewSegStore(NewFile(pool, NewMemDevice()), 0)
	c, _ := s.Create()
	n, err := AppendBits(s, c, 123, nil, 0)
	if err != nil || n != 123 {
		t.Fatalf("empty append: n=%d err=%v", n, err)
	}
}
