package gram

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestGramsPaperExample31(t *testing.T) {
	// Example 3.1: the 3-grams of "yes" are ##y, #ye, yes, es$, s$$.
	got := Grams("yes", 3)
	want := []string{"##y", "#ye", "yes", "es$", "s$$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Grams(yes,3) = %v, want %v", got, want)
	}
}

func TestGramsPaperExample32(t *testing.T) {
	// Example 3.2: the 2-grams of "ok" are #o, ok, k$.
	got := Grams("ok", 2)
	want := []string{"#o", "ok", "k$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Grams(ok,2) = %v, want %v", got, want)
	}
}

func TestGramCount(t *testing.T) {
	// A string of length m has m+n-1 n-grams.
	for _, s := range []string{"a", "ab", "hello", "community systems"} {
		for n := 1; n <= 5; n++ {
			if got := len(Grams(s, n)); got != len(s)+n-1 {
				t.Errorf("len(Grams(%q,%d)) = %d, want %d", s, n, got, len(s)+n-1)
			}
		}
	}
}

func TestGramsN1(t *testing.T) {
	got := Grams("abc", 1)
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Grams(abc,1) = %v", got)
	}
}

func TestSetPaperExample33(t *testing.T) {
	// Example 3.3: the 2-gram set of "www" is {(1,#w),(2,ww),(1,w$)}, size 4.
	set := NewSet("www", 2)
	want := Set{"#w": 1, "ww": 2, "w$": 1}
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("NewSet(www,2) = %v, want %v", set, want)
	}
	if set.Size() != 4 {
		t.Fatalf("Size = %d, want 4", set.Size())
	}
}

func TestCommonSize(t *testing.T) {
	a := NewSet("www", 2)
	b := NewSet("ww", 2)
	// grams of "ww": #w, ww, w$. common: #w(1), ww(1), w$(1) -> 3.
	if got := a.CommonSize(b); got != 3 {
		t.Fatalf("CommonSize = %d, want 3", got)
	}
	if got := b.CommonSize(a); got != 3 {
		t.Fatalf("CommonSize not symmetric: %d", got)
	}
}

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"canon", "cannon", 1}, // the paper's running typo example
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "axc", 1},
		{"sunday", "saturday", 3},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.d {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(randomString(rng, 12))
			}
		},
	}
	// Symmetry and identity.
	sym := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a) && EditDistance(a, a) == 0
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	tri := func(a, b, c string) bool {
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(tri, cfg); err != nil {
		t.Error(err)
	}
	// Length difference is a lower bound; max length an upper bound.
	bounds := func(a, b string) bool {
		d := EditDistance(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(bounds, cfg); err != nil {
		t.Error(err)
	}
}

func TestEstPrimeLowerBound(t *testing.T) {
	// Proposition from [9]: est'(sq,sd) <= ed(sq,sd) always.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		a := randomString(rng, 20)
		b := mutate(rng, a, rng.Intn(6))
		for _, n := range []int{2, 3, 4, 5} {
			if a == "" || b == "" {
				continue
			}
			est := EstPrime(a, b, n)
			ed := float64(EditDistance(a, b))
			if est > ed {
				t.Fatalf("est'(%q,%q,n=%d) = %v > ed = %v", a, b, n, est, ed)
			}
		}
	}
}

func TestEstPrimeIdentical(t *testing.T) {
	for _, s := range []string{"a", "ok", "digital camera"} {
		for n := 2; n <= 4; n++ {
			if got := EstPrime(s, s, n); got != 0 {
				t.Errorf("EstPrime(%q,%q,%d) = %v, want 0", s, s, n, got)
			}
		}
	}
}

func TestEstFromCommonClamp(t *testing.T) {
	if got := EstFromCommon(2, 2, 100, 2); got != 0 {
		t.Fatalf("negative estimate not clamped: %v", got)
	}
}

// TestBitParallelMatchesDP holds the bit-parallel core — through EditDistance
// and through a prepared Pattern, over strings and bytes — equal to the DP it
// replaced, across the one-word boundary (63/64/65), bytes ≥ 0x80, empty and
// equal strings.
func TestBitParallelMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := func(n, alphabet int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0x7c + rng.Intn(alphabet)) // straddles 0x80
		}
		return string(b)
	}
	check := func(a, b string) {
		t.Helper()
		want := editDistanceDP(a, b)
		if got := EditDistance(a, b); got != want {
			t.Fatalf("EditDistance(%q,%q) = %d, DP says %d", a, b, got, want)
		}
		var p Pattern
		p.Set(a)
		if got := p.Distance(b); got != want {
			t.Fatalf("Pattern(%q).Distance(%q) = %d, DP says %d", a, b, got, want)
		}
		if got := p.DistanceBytes([]byte(b)); got != want {
			t.Fatalf("Pattern(%q).DistanceBytes(%q) = %d, DP says %d", a, b, got, want)
		}
	}
	for la := 0; la <= 70; la++ {
		for lb := 0; lb <= 70; lb++ {
			a := draw(la, 2+rng.Intn(6))
			check(a, draw(lb, 2+rng.Intn(6)))
			if la == lb {
				check(a, a)
			}
			if la > 0 {
				check(a, mutate(rng, a, rng.Intn(5)))
			}
		}
	}
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

// mutate applies k random single-character edits to s.
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

var benchSink int

// The refine kernel (a Pattern prepared once per query term) next to the DP
// it replaced, on one pair.
func BenchmarkEditDistanceBitParallel(b *testing.B) {
	var p Pattern
	p.Set("digital camerass")
	y := []byte("digital cannerae")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += p.DistanceBytes(y)
	}
}

func BenchmarkEditDistanceDP(b *testing.B) {
	x, y := "digital camerass", "digital cannerae"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += editDistanceDP(x, y)
	}
}

func BenchmarkEstPrime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		EstPrime("digital camera", "digital cannera", 2)
	}
}

// TestPatternReuse: Set on a used Pattern forgets the previous string.
func TestPatternReuse(t *testing.T) {
	var p Pattern
	for _, s := range []string{"kitten", strings.Repeat("ab", 40), "", "sitting"} {
		p.Set(s)
		if got, want := p.Distance("sitten"), editDistanceDP(s, "sitten"); got != want {
			t.Fatalf("after Set(%q): Distance = %d, want %d", s, got, want)
		}
	}
}
