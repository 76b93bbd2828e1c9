package bench

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sparsewide/iva/internal/gram"
)

func TestGramsPaperExample31(t *testing.T) {
	// Example 3.1: the 3-grams of "yes" are ##y, #ye, yes, es$, s$$.
	got := grams("yes", 3)
	want := []string{"##y", "#ye", "yes", "es$", "s$$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grams(yes,3) = %v, want %v", got, want)
	}
}

func TestGramsPaperExample32(t *testing.T) {
	// Example 3.2: the 2-grams of "ok" are #o, ok, k$.
	got := grams("ok", 2)
	want := []string{"#o", "ok", "k$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grams(ok,2) = %v, want %v", got, want)
	}
}

func TestGramCount(t *testing.T) {
	// A string of length m has m+n-1 n-grams.
	for _, s := range []string{"a", "ab", "hello", "community systems"} {
		for n := 1; n <= 5; n++ {
			if got := len(grams(s, n)); got != len(s)+n-1 {
				t.Errorf("len(grams(%q,%d)) = %d, want %d", s, n, got, len(s)+n-1)
			}
		}
	}
}

func TestGramsN1(t *testing.T) {
	got := grams("abc", 1)
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grams(abc,1) = %v", got)
	}
}

func TestSetPaperExample33(t *testing.T) {
	// Example 3.3: the 2-gram set of "www" is {(1,#w),(2,ww),(1,w$)}, size 4.
	set := newGramSet("www", 2)
	want := gramSet{"#w": 1, "ww": 2, "w$": 1}
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("newGramSet(www,2) = %v, want %v", set, want)
	}
}

func TestCommonSize(t *testing.T) {
	a := newGramSet("www", 2)
	b := newGramSet("ww", 2)
	// grams of "ww": #w, ww, w$. common: #w(1), ww(1), w$(1) -> 3.
	if got := a.commonSize(b); got != 3 {
		t.Fatalf("commonSize = %d, want 3", got)
	}
	if got := b.commonSize(a); got != 3 {
		t.Fatalf("commonSize not symmetric: %d", got)
	}
}

func TestEstPrimeLowerBound(t *testing.T) {
	// Proposition from [9]: est'(sq,sd) <= ed(sq,sd) always.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		a := randomString(rng, 20)
		b := mutate(rng, a, rng.Intn(6))
		for _, n := range []int{2, 3, 4, 5} {
			est := estPrime(a, b, n)
			ed := float64(gram.EditDistance(a, b))
			if est > ed {
				t.Fatalf("est'(%q,%q,n=%d) = %v > ed = %v", a, b, n, est, ed)
			}
		}
	}
}

func TestEstPrimeIdentical(t *testing.T) {
	for _, s := range []string{"a", "ok", "digital camera"} {
		for n := 2; n <= 4; n++ {
			if got := estPrime(s, s, n); got != 0 {
				t.Errorf("estPrime(%q,%q,%d) = %v, want 0", s, s, n, got)
			}
		}
	}
}

func TestEstFromCommonClamp(t *testing.T) {
	if got := estFromCommon(2, 2, 100, 2); got != 0 {
		t.Fatalf("negative estimate not clamped: %v", got)
	}
}

// FuzzEstPrimeLowerBound verifies the n-gram bound never exceeds the true
// edit distance for arbitrary byte strings.
func FuzzEstPrimeLowerBound(f *testing.F) {
	f.Add("digital camera", "digtal camrea", 2)
	f.Add("a", "b", 5)
	f.Fuzz(func(t *testing.T, a, b string, n int) {
		if len(a) == 0 || len(b) == 0 || len(a) > 64 || len(b) > 64 {
			return
		}
		if n < 0 {
			n = -n
		}
		n = n%7 + 1
		if est, ed := estPrime(a, b, n), float64(gram.EditDistance(a, b)); est > ed {
			t.Fatalf("est'(%q,%q,%d) = %v > ed = %v", a, b, n, est, ed)
		}
	})
}

// randomString draws a lowercase string of length 1..maxLen.
func randomString(rng *rand.Rand, maxLen int) string {
	n := 1 + rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6)) // small alphabet => many shared grams
	}
	return string(b)
}

// mutate applies k random single-character edits to s; it never returns "".
func mutate(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		if len(b) == 0 {
			b = append(b, byte('a'+rng.Intn(6)))
			continue
		}
		p := rng.Intn(len(b))
		switch rng.Intn(3) {
		case 0: // substitution
			b[p] = byte('a' + rng.Intn(6))
		case 1: // deletion
			b = append(b[:p], b[p+1:]...)
		default: // insertion
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(6))}, b[p:]...)...)
		}
	}
	if len(b) == 0 {
		return "a"
	}
	return string(b)
}
