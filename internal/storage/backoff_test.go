package storage

import (
	"testing"
	"time"
)

// TestBackoffDelaySchedule pins the jitter ceilings: with a deterministic
// Rand returning the ceiling itself, Delay must follow base<<k capped at Max.
func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	b.Rand = func(n int64) int64 { return n - 1 } // the ceiling
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
		8 * time.Millisecond,
	}
	for k, w := range want {
		if got := b.Delay(k); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", k, got, w)
		}
	}
	b.Rand = func(n int64) int64 { return 0 }
	if got := b.Delay(3); got != 0 {
		t.Fatalf("full jitter must reach 0, got %v", got)
	}
}
