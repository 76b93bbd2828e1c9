package bench

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/signature"
)

func TestExpectedErrorMonotoneInL(t *testing.T) {
	// Larger l must not increase the minimal expected error (§III-B.3:
	// "Larger l will necessarily result in lower ê").
	m := 18
	prev := math.Inf(1)
	for _, l := range []int{8, 16, 32, 64, 128} {
		best := math.Inf(1)
		for tt := 1; tt < l; tt++ {
			if e := expectedError(m, l, tt); e < best {
				best = e
			}
		}
		if best > prev+1e-12 {
			t.Fatalf("minimal error grew from %v to %v at l=%d", prev, best, l)
		}
		prev = best
	}
}

func TestOptimalTRange(t *testing.T) {
	for m := 1; m <= 64; m++ {
		for _, l := range []int{8, 16, 32, 64} {
			tt := optimalT(m, l)
			if tt < 1 || tt >= l {
				t.Fatalf("optimalT(%d,%d) = %d out of range", m, l, tt)
			}
			if e := expectedError(m, l, tt); e > expectedError(m, l, 1)+1e-12 {
				t.Fatalf("optimalT(%d,%d) = %d is worse than t = 1", m, l, tt)
			}
		}
	}
}

func TestHashMaskExactlyTBits(t *testing.T) {
	for _, l := range []int{8, 16, 32, 64, 96} {
		for _, tt := range []int{1, 2, 3, l / 2} {
			if tt < 1 || tt >= l {
				continue
			}
			m := make([]uint64, (l+63)/64)
			orMask(m, fnv64("ab"), l, tt)
			n := 0
			for _, w := range m {
				n += bits.OnesCount64(w)
			}
			if n != tt {
				t.Fatalf("orMask set %d bits, want %d (l=%d)", n, tt, l)
			}
			// No bits outside l.
			if rem := l % 64; rem != 0 {
				if m[len(m)-1]&(^uint64(0)>>uint(rem)) != 0 {
					t.Fatalf("bits set beyond l=%d", l)
				}
			}
		}
	}
}

func TestMaskSubset(t *testing.T) {
	sig := []uint64{0b1101 << 60}
	if !maskSubset([]uint64{0b1100 << 60}, sig) {
		t.Fatal("subset rejected")
	}
	if maskSubset([]uint64{0b0010 << 60}, sig) {
		t.Fatal("non-subset accepted")
	}
}

// TestNGSigLowerBound holds the reference signature to Property 3.2 (a data
// string hits all of its own grams, so it estimates itself at 0) and
// Proposition 3.3 (est ≤ est' ≤ ed) over random pairs, at the engine's widths
// for several (n, α).
func TestNGSigLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	word := func() string {
		b := make([]byte, 1+rng.Intn(25))
		for i := range b {
			b[i] = byte('a' + rng.Intn(8))
		}
		return string(b)
	}
	for _, n := range []int{2, 3} {
		for _, a := range []float64{0.1, 0.2, 0.3} {
			codec, err := signature.NewCodec(n, a)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 300; trial++ {
				sq, sd := word(), word()
				h := ngEncode(codec, sd)
				if self := ngEst(codec, sd, h, len(sd)); self != 0 {
					t.Fatalf("n=%d α=%v: est(%q, c(%q)) = %v, want 0", n, a, sd, sd, self)
				}
				est := ngEst(codec, sq, h, len(sd))
				if ep := estPrime(sq, sd, n); est > ep+1e-9 {
					t.Fatalf("n=%d α=%v: est(%q, c(%q)) = %v > est' %v", n, a, sq, sd, est, ep)
				}
				if ed := float64(gram.EditDistance(sq, sd)); est > ed {
					t.Fatalf("n=%d α=%v: est(%q, c(%q)) = %v > ed %v", n, a, sq, sd, est, ed)
				}
			}
		}
	}
}
