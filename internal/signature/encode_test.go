package signature

import (
	"math/rand"
	"testing"

	"github.com/sparsewide/iva/internal/gram"
)

// encodeGrams is the element by its definition: a character histogram is the
// count of s's 1-grams (unpadded 1-grams are its bytes), and each count goes
// into lane byte mod B, clamped at 3, written lane by lane MSB-first.
func encodeGrams(c *Codec, s string) Sig {
	l := c.SigBits(len(s))
	lanes := l / 2
	counts := make([]int, lanes)
	for i := 0; i < len(s); i++ {
		counts[int(s[i])%lanes]++
	}
	h := make([]uint64, (l+63)/64)
	for b, n := range counts {
		v := uint64(min(n, laneCap))
		pos := 2 * b // stream bit of the lane's high bit
		h[pos/64] |= v << (62 - pos%64)
	}
	return Sig{Len: len(s), H: h}
}

func sameSig(a, b Sig) bool {
	if a.Len != b.Len || len(a.H) != len(b.H) {
		return false
	}
	for i := range a.H {
		if a.H[i] != b.H[i] {
			return false
		}
	}
	return true
}

// checkEncode compares the two entry points with the reference on one
// string. dst is dirty on purpose: EncodeBytes must clear the words it uses.
func checkEncode(t *testing.T, c *Codec, dst []uint64, s string) {
	t.Helper()
	want := encodeGrams(c, s)
	if got := c.Encode(s); !sameSig(got, want) {
		t.Fatalf("n=%d α=%v: Encode(%q) = %x, 1-grams give %x", c.n, c.alpha, s, got.H, want.H)
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	got := c.EncodeBytes(dst, []byte(s))
	if !sameSig(got, want) {
		t.Fatalf("n=%d α=%v: EncodeBytes(%q) = %x, 1-grams give %x", c.n, c.alpha, s, got.H, want.H)
	}
	if len(dst) >= len(got.H) && len(got.H) > 0 && &got.H[0] != &dst[0] {
		t.Fatalf("EncodeBytes allocated although dst had room (%d words for %d)", len(dst), len(got.H))
	}
}

// TestEncodeBytesMatchesGrams walks every data-string length the cL byte
// holds, for n ∈ {1,2,3}: the default α, the widest α, and an α so small that
// l is one byte (four lanes) and every lane saturates.
func TestEncodeBytesMatchesGrams(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dst := make([]uint64, 64)
	for _, n := range []int{1, 2, 3} {
		for _, alpha := range []float64{0.2, 1, 0.001} {
			c := mustCodec(t, n, alpha)
			for length := 0; length <= 255; length++ {
				b := make([]byte, length)
				for i := range b {
					b[i] = byte(rng.Intn(256))
				}
				checkEncode(t, c, dst, string(b))
				checkEncode(t, c, dst[:0:0], string(b)) // no room: allocates
			}
			checkEncode(t, c, dst, "##$$#$")
		}
	}
}

// TestEncodeBytesAllocs: with room in dst, encoding allocates nothing.
func TestEncodeBytesAllocs(t *testing.T) {
	c := mustCodec(t, 2, 0.2)
	dst := make([]uint64, 8)
	s := []byte("Digital Camera EOS 450D")
	if n := testing.AllocsPerRun(100, func() { c.EncodeBytes(dst, s) }); n != 0 {
		t.Fatalf("EncodeBytes allocates %v times per call", n)
	}
}

func FuzzSignatureEncode(f *testing.F) {
	f.Add("", uint8(2), uint8(51))
	f.Add("Canon", uint8(2), uint8(51))
	f.Add("#$", uint8(3), uint8(255))
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, s string, n, alpha uint8) {
		if len(s) > 255 {
			s = s[:255]
		}
		c := mustCodec(t, 1+int(n%3), (float64(alpha)+1)/256)
		checkEncode(t, c, make([]uint64, 40), s)
		// The string's halves as query and data: the bound holds.
		sq, sd := s[:len(s)/2], s[len(s)/2:]
		if est, ed := c.NewQueryString(sq).Est(c.Encode(sd)), gram.EditDistance(sq, sd); est > float64(ed) {
			t.Fatalf("est(%q, c(%q)) = %v > ed %d", sq, sd, est, ed)
		}
	})
}
