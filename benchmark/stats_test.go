package main

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%.3f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The sample-count rule: a percentile is reported on at least ten samples
// beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1600, 0.99, true}, {1000, 0.99, true}, {999, 0.99, false}, {672, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v (beyond %d)", c.n, c.p, got, beyond(c.n, c.p))
		}
	}
	if got := beyond(1600, 0.99); got != 16 {
		t.Errorf("1600 samples leave %d beyond p99, want 16", got)
	}
}

// ops_per_s is the median over eight rounds of equally many operations; a
// phase too short for that is one round.
func TestRoundRates(t *testing.T) {
	epoch := time.Unix(0, 0)
	var recs []opRec
	at := time.Duration(0)
	for _, opMS := range []int{10, 10, 10, 40, 10, 10, 20, 10} { // round 3 hit a slow stretch
		for i := 0; i < 5; i++ {
			recs = append(recs, opRec{kind: opSearch, start: epoch.Add(at), end: epoch.Add(at + time.Duration(opMS)*time.Millisecond)})
			at += time.Duration(opMS) * time.Millisecond
		}
	}
	recs = append(recs, opRec{kind: opSearch, start: epoch.Add(at), end: epoch.Add(at + time.Millisecond)}) // remainder, in no round
	got := roundRates(&phase{recs: recs, wall: at})
	want := []float64{100, 100, 100, 25, 100, 100, 50, 100}
	if len(got) != len(want) {
		t.Fatalf("roundRates = %v", got)
	}
	for i := range want {
		if got[i] < want[i]*0.999 || got[i] > want[i]*1.001 {
			t.Errorf("round %d: %v ops/s, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); m < 99.9 || m > 100.1 {
		t.Errorf("median %v, want 100: one slow round must not move it", m)
	}
	short := roundRates(&phase{recs: recs[:10], wall: 100 * time.Millisecond})
	if len(short) != 1 || short[0] != 100 {
		t.Errorf("short phase: %v", short)
	}
}
