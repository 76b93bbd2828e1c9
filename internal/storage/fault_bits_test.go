package storage

import (
	"errors"
	"testing"
)

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
