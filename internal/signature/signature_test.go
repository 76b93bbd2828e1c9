package signature

import (
	"math/rand"
	"sync"
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

func TestSelfHitProperty(t *testing.T) {
	// A data string's element holds its own lane counts, so a query equal to
	// the data string has L1 = 0 and estimates distance 0 (the histogram's
	// form of Property 3.2) at every width, saturated lanes included.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3} {
		for _, alpha := range []float64{0.01, 0.1, 0.2, 0.3, 1} {
			c := mustCodec(t, n, alpha)
			for trial := 0; trial < 300; trial++ {
				s := randomString(rng, 30)
				sig := c.Encode(s)
				q := c.NewQueryString(s)
				if got := q.Est(sig); got != 0 {
					t.Fatalf("Est(s,c(s)) = %v for %q (n=%d, α=%v), want 0", got, s, n, alpha)
				}
			}
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Proposition 3.3's contract: est(sq, c(sd)) <= ed(sq, sd) for every pair.
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
				if ed := float64(gram.EditDistance(sq, sd)); est > ed {
					t.Fatalf("est(%q, c(%q)) = %v > ed = %v (n=%d, α=%v)", sq, sd, est, ed, n, alpha)
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
	// An element should distinguish a far string from a near one.
	c := mustCodec(t, 2, 0.3)
	sig := c.Encode("digital camera")
	near := c.NewQueryString("digital camera")
	far := c.NewQueryString("zzzzqqqqwwww")
	if e := near.Est(sig); e != 0 {
		t.Fatalf("near est = %v", e)
	}
	if e := far.Est(sig); e <= 0 {
		t.Fatalf("far est = %v, want > 0 (element has no filtering power)", e)
	}
}

func TestSaturatedSignatureStillSafe(t *testing.T) {
	// With tiny l and a long string every lane saturates; estimates degrade
	// toward the length difference but must never go negative or exceed ed.
	c := mustCodec(t, 2, 0.01) // floor: l = 8 bits, four lanes, for any length
	sd := "a very long data string that will saturate eight bits easily"
	sig := c.Encode(sd)
	q := c.NewQueryString("completely different")
	est := q.Est(sig)
	if est < 0 {
		t.Fatalf("est = %v < 0", est)
	}
	if ed := float64(gram.EditDistance(q.str, sd)); est > ed {
		t.Fatalf("est %v > ed %v on saturated lanes", est, ed)
	}
}

func TestPaperExampleEstimateShape(t *testing.T) {
	// Example 3.4's pair: query "oh" against data "ok" estimates at most
	// ed("oh","ok") = 1, and exactly 1 when 'h' and 'k' fall in different
	// lanes (one substitution: L1 = 2, halved).
	c := mustCodec(t, 2, 0.5)
	sig := c.Encode("ok")
	q := c.NewQueryString("oh")
	if est := q.Est(sig); est != 1 {
		t.Fatalf("est(oh, c(ok)) = %v, want 1", est)
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
	q.Est(sig) // fill the width's plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Est(sig)
	}
}

// laneOf reads lane b of cH by its definition: stream bits 2b (high) and
// 2b+1 (low), stream bit i being bit 63−(i mod 64) of word i/64.
func laneOf(h []uint64, b int) int {
	bit := func(i int) int { return int(h[i/64]>>(63-i%64)) & 1 }
	return bit(2*b)<<1 | bit(2*b+1)
}

// estReference is Est by its definition, lane by lane: L1 = Σ_b |min(q_b, 3)
// − lane_b| with the query's counts taken afresh from its bytes and the
// element's lanes read off its bits, then max(|Δlen|, ⌈(L1 + |Δlen|)/2⌉).
func estReference(c *Codec, sq string, sig Sig) float64 {
	lanes := c.SigBits(sig.Len) / 2
	q := make([]int, lanes)
	for i := 0; i < len(sq); i++ {
		q[int(sq[i])%lanes]++
	}
	l1 := 0
	for b, qb := range q {
		d := min(qb, laneCap) - laneOf(sig.H, b)
		l1 += max(d, -d)
	}
	dl := max(len(sq)-sig.Len, sig.Len-len(sq))
	return float64(max(dl, (l1+dl+1)/2))
}

// randWord returns n random bytes from alphabet, or from all 256 byte values
// when alphabet is empty.
func randWord(rng *rand.Rand, n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		if alphabet == "" {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return string(b)
}

// seamLens returns the data lengths whose cH is 56 to 72 bits wide under c:
// both sides of the 64-bit word seam.
func seamLens(c *Codec) []int {
	var lens []int
	for strLen := 0; strLen < 700; strLen++ {
		if l := c.SigBits(strLen); l >= 56 && l <= 72 {
			lens = append(lens, strLen)
		}
	}
	return lens
}

// TestEstMatchesLanes holds Est — three popcounts a word under per-width
// plans, one-word plans inline — equal to estReference over random data and
// query strings on a small alphabet (repeated bytes, so saturated lanes on
// both sides) and on all 256 byte values, at lengths on both sides of the
// 64-bit word seam of every α and past the 255-byte table.
func TestEstMatchesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	widths := map[string]int{}
	for _, alpha := range []float64{0.01, 0.1, 0.2, 0.4, 1.0} {
		for n := 1; n <= 3; n++ {
			c := mustCodec(t, n, alpha)
			lens := append([]int{0, 1, 2, 5, 13, 21, 100, 255, 256, 300}, seamLens(c)...)
			for trial := 0; trial < 6; trial++ {
				alphabet := []string{"abcab ", ""}[trial%2]
				q := c.NewQueryString(randWord(rng, rng.Intn(24), alphabet))
				for _, strLen := range lens {
					for _, sig := range []Sig{c.Encode(randWord(rng, strLen, alphabet)), c.Encode((q.str + randWord(rng, strLen, alphabet))[:strLen])} {
						if got, want := q.Est(sig), estReference(c, q.str, sig); got != want {
							t.Fatalf("α=%v n=%d query %q, data length %d: Est = %v, lane by lane %v",
								alpha, n, q.str, sig.Len, got, want)
						}
					}
					if c.SigBits(strLen) > 64 {
						widths["multi-word"]++
					} else {
						widths["one word"]++
					}
				}
			}
		}
	}
	for _, form := range []string{"one word", "multi-word"} {
		if widths[form] == 0 {
			t.Errorf("no case ran a %s plan: %v", form, widths)
		}
	}
}

// TestEstSharedMatchesLanes holds Est equal to estReference from several
// goroutines sharing one QueryString, whose per-width plans they fill
// concurrently, at lengths across the one-word seam and past the 255-byte
// table.
func TestEstSharedMatchesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustCodec(t, 2, 0.2)
	q := c.NewQueryString("digital camera shop")
	var sigs []Sig
	for _, n := range append([]int{1, 2, 15, 100, 255, 256, 300}, seamLens(c)...) {
		sigs = append(sigs, c.Encode(randWord(rng, n, "digtal cmersho")), c.Encode(randWord(rng, n, "")),
			c.Encode("digital camera shop"[:min(n, 19)]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sig := range sigs {
				if got, want := q.Est(sig), estReference(c, q.str, sig); got != want {
					t.Errorf("Est(len %d) = %v, lane by lane %v", sig.Len, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
