package signature

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/gram"
)

func mustCodec(t testing.TB, n int, alpha float64) *Codec {
	t.Helper()
	c, err := NewCodec(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(0, 0.2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewCodec(2, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewCodec(2, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
	if _, err := NewCodec(2, 0.2); err != nil {
		t.Errorf("valid codec rejected: %v", err)
	}
}

func TestSigBits(t *testing.T) {
	c := mustCodec(t, 2, 0.2)
	// |s|=17, n=2: m=18, ceil(0.2*18)=4 bytes = 32 bits.
	if got := c.SigBits(17); got != 32 {
		t.Fatalf("SigBits(17) = %d, want 32", got)
	}
	// Floor: one byte minimum.
	if got := c.SigBits(1); got != 8 {
		t.Fatalf("SigBits(1) = %d, want 8", got)
	}
}

func TestExpectedErrorMonotoneInL(t *testing.T) {
	// Larger l must not increase the minimal expected error (§III-B.3:
	// "Larger l will necessarily result in lower ê").
	m := 18
	prev := math.Inf(1)
	for _, l := range []int{8, 16, 32, 64, 128} {
		best := math.Inf(1)
		for tt := 1; tt < l; tt++ {
			if e := ExpectedError(m, l, tt); e < best {
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
	c := mustCodec(t, 2, 0.2)
	for m := 1; m <= 64; m++ {
		for _, l := range []int{8, 16, 32, 64} {
			tt := c.OptimalT(m, l)
			if tt < 1 || tt >= l {
				t.Fatalf("OptimalT(%d,%d) = %d out of range", m, l, tt)
			}
		}
	}
	// Memoized second call must agree.
	if a, b := c.OptimalT(18, 32), c.OptimalT(18, 32); a != b {
		t.Fatal("memoization changed result")
	}
}

func TestSelfHitProperty(t *testing.T) {
	// Property 3.2: every n-gram of sd is a hit in c(sd); hence a query
	// identical to the data string estimates distance 0.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3} {
		for _, alpha := range []float64{0.1, 0.2, 0.3} {
			c := mustCodec(t, n, alpha)
			for trial := 0; trial < 300; trial++ {
				s := randomString(rng, 30)
				sig := c.Encode(s)
				q := c.NewQueryString(s)
				if got := q.Est(sig); got != 0 {
					t.Fatalf("Est(s,c(s)) = %v for %q (n=%d, α=%v), want 0", got, s, n, alpha)
				}
				// Hits must cover the full gram multiset.
				if hits := q.Hits(sig); hits < len(s)+n-1 {
					t.Fatalf("Hits = %d < %d grams for %q", hits, len(s)+n-1, s)
				}
			}
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Proposition 3.3: est(sq, c(sd)) <= ed(sq, sd) for every pair.
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 3, 4} {
		for _, alpha := range []float64{0.1, 0.2, 0.3} {
			c := mustCodec(t, n, alpha)
			for trial := 0; trial < 500; trial++ {
				sd := randomString(rng, 25)
				sq := randomString(rng, 25)
				sig := c.Encode(sd)
				q := c.NewQueryString(sq)
				est := q.Est(sig)
				ed := float64(gram.EditDistance(sq, sd))
				if est > ed {
					t.Fatalf("est(%q, c(%q)) = %v > ed = %v (n=%d, α=%v)", sq, sd, est, ed, n, alpha)
				}
				// est must also never exceed est' (hits >= common grams).
				if ep := gram.EstPrime(sq, sd, n); est > ep+1e-9 {
					t.Fatalf("est = %v > est' = %v for (%q,%q)", est, ep, sq, sd)
				}
			}
		}
	}
}

func TestEstDeterministic(t *testing.T) {
	c := mustCodec(t, 2, 0.2)
	sig1 := c.Encode("digital camera")
	sig2 := c.Encode("digital camera")
	if sig1.Len != sig2.Len || len(sig1.H) != len(sig2.H) {
		t.Fatal("signature shape not deterministic")
	}
	for i := range sig1.H {
		if sig1.H[i] != sig2.H[i] {
			t.Fatal("signature bits not deterministic")
		}
	}
}

func TestEstDiscriminates(t *testing.T) {
	// A signature should usually distinguish a far string from a near one.
	c := mustCodec(t, 2, 0.3)
	sig := c.Encode("digital camera")
	near := c.NewQueryString("digital camera")
	far := c.NewQueryString("zzzzqqqqwwww")
	if e := near.Est(sig); e != 0 {
		t.Fatalf("near est = %v", e)
	}
	if e := far.Est(sig); e <= 0 {
		t.Fatalf("far est = %v, want > 0 (signature has no filtering power)", e)
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

func TestSaturatedSignatureStillSafe(t *testing.T) {
	// With tiny l and a long string the signature saturates; estimates
	// degrade to 0 but must never go negative or exceed ed.
	c := mustCodec(t, 2, 0.01) // floor: l = 8 bits for any length
	sd := "a very long data string that will saturate eight bits easily"
	sig := c.Encode(sd)
	q := c.NewQueryString("completely different")
	est := q.Est(sig)
	if est < 0 {
		t.Fatalf("est = %v < 0", est)
	}
	if ed := float64(gram.EditDistance(q.Str(), sd)); est > ed {
		t.Fatalf("est %v > ed %v on saturated signature", est, ed)
	}
}

func TestPaperExampleEstimateShape(t *testing.T) {
	// Example 3.4 shape: query "oh" against data "ok" with n=2 estimates
	// at most ed("oh","ok") = 1.
	c := mustCodec(t, 2, 0.5)
	sig := c.Encode("ok")
	q := c.NewQueryString("oh")
	if est := q.Est(sig); est > 1 {
		t.Fatalf("est(oh, c(ok)) = %v > 1", est)
	}
}

func randomString(rng *rand.Rand, maxLen int) string {
	n := 1 + rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(8))
	}
	return string(b)
}

func BenchmarkEncode(b *testing.B) {
	c := mustCodec(b, 2, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode("digital camera")
	}
}

func BenchmarkEst(b *testing.B) {
	c := mustCodec(b, 2, 0.2)
	sig := c.Encode("digital camera")
	q := c.NewQueryString("digtal camrea")
	q.Est(sig) // warm mask cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Est(sig)
	}
}

// TestHitsMatchesPerGramMasks holds the per-length plan (flattened masks, the
// one-word fast path, the codec's (l,t) table) equal to Def. 3.3 evaluated
// gram by gram with freshly hashed masks, across the one-word boundary and
// past the 255-byte table, from several goroutines sharing one QueryString.
func TestHitsMatchesPerGramMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustCodec(t, 2, 0.2)
	q := c.NewQueryString("digital camera shop")
	var sigs []Sig
	for _, n := range []int{1, 2, 15, 38, 39, 40, 41, 100, 255, 256, 300} {
		b := make([]byte, n)
		for i := range b {
			b[i] = "digtal cmersho"[rng.Intn(14)]
		}
		sigs = append(sigs, c.Encode(string(b)), c.Encode("digital camera shop"[:min(n, 19)]))
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, sig := range sigs {
				if got, w := q.Hits(sig), hitsReference(q, sig); got != w {
					t.Errorf("Hits(len %d) = %d, per-gram evaluation says %d", sig.Len, got, w)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// hitsReference is Hits as it was before the popcount and branch-free forms:
// Def. 3.3 gram by gram over freshly hashed masks, one maskSubset each, with
// (l, t) computed afresh instead of read from the codec's table.
func hitsReference(q *QueryString, sig Sig) int {
	c := q.codec
	l := c.SigBits(sig.Len)
	t := c.OptimalT(sig.Len+c.N()-1, l)
	hits := 0
	for g, a := range gram.NewSet(q.Str(), c.N()) {
		m := make([]uint64, (l+63)/64)
		orMask(m, fnv64(g), l, t)
		if maskSubset(m, sig.H) {
			hits += a
		}
	}
	return hits
}

// TestHitsMatchesReference holds the three forms of Hits — weight-class
// popcounts (one word, t = 1), the branch-free one-word loop (t > 1) and the
// multi-word loop — equal to hitsReference over random data and query strings
// on a small alphabet (repeated grams, so counts above 1, and colliding grams,
// so two query grams on one signature bit), at lengths on both sides of the
// 64-bit seam of every α.
func TestHitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcab "[rng.Intn(6)]
		}
		return string(b)
	}
	forms := map[string]int{}
	for _, alpha := range []float64{0.1, 0.2, 0.4, 0.6, 1.0} {
		for n := 1; n <= 3; n++ {
			c := mustCodec(t, n, alpha)
			// The data lengths whose signatures are 56, 64 and 72 bits wide,
			// plus short, long and beyond-the-table ones.
			lens := []int{0, 1, 2, 5, 13, 21, 100, 255, 300}
			for strLen := 0; strLen < 700; strLen++ {
				if l := c.SigBits(strLen); l >= 56 && l <= 72 {
					lens = append(lens, strLen)
				}
			}
			for trial := 0; trial < 6; trial++ {
				q := c.NewQueryString(word(rng.Intn(24)))
				shared := 0
				for _, a := range q.counts {
					shared = max(shared, a)
				}
				for _, strLen := range lens {
					for _, sig := range []Sig{c.Encode(word(strLen)), c.Encode((q.Str() + word(strLen))[:strLen])} {
						if got, want := q.Hits(sig), hitsReference(q, sig); got != want {
							t.Fatalf("α=%v n=%d query %q, data length %d: Hits = %d, reference %d",
								alpha, n, q.Str(), strLen, got, want)
						}
					}
					switch p := q.plan(strLen); {
					case p.classes != nil && len(p.classes) > 1:
						forms["classes, a bit of weight > 1"]++
					case p.classes != nil:
						forms["classes"]++
					case p.nw == 1:
						forms["one word, t > 1"]++
					default:
						forms["multi-word"]++
					}
				}
				if shared > 1 {
					forms["repeated gram"]++
				}
			}
		}
	}
	for _, form := range []string{"classes", "classes, a bit of weight > 1", "one word, t > 1", "multi-word", "repeated gram"} {
		if forms[form] == 0 {
			t.Errorf("no case ran %q: %v", form, forms)
		}
	}
}

// BenchmarkHits prices one hit count under each form of the per-length plan:
// weight classes (the benchmark's strings at α = 0.2), the branch-free
// one-word loop, and the multi-word reference loop.
func BenchmarkHits(b *testing.B) {
	for _, bc := range []struct {
		name  string
		alpha float64
		data  string
	}{
		{"t=1", 0.2, "digital camera"},
		{"t>1", 0.5, "digital camera"},
		{"multiword", 0.2, "a digital camera with a wide-angle telephoto lens"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := mustCodec(b, 2, bc.alpha)
			sig := c.Encode(bc.data)
			q := c.NewQueryString("digtal camrea")
			q.Hits(sig) // fill the length's plan
			switch p := q.plan(sig.Len); {
			case bc.name == "t=1" && p.classes == nil, bc.name == "t>1" && (p.classes != nil || p.nw != 1), bc.name == "multiword" && p.nw < 2:
				b.Fatalf("plan is not the %s form: %+v", bc.name, p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += q.Hits(sig)
			}
		})
	}
}

var benchSink int
