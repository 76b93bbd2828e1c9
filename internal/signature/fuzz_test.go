package signature

import (
	"testing"

	"github.com/sparsewide/iva/internal/gram"
)

// FuzzNoFalseNegatives is the fuzz form of Proposition 3.3's contract: for any
// pair of strings and any legal (n, α), est(sq, c(sd)) must never exceed the
// true edit distance. Data strings are cut at the table's 255 bytes; query
// strings are not.
func FuzzNoFalseNegatives(f *testing.F) {
	f.Add("canon", "cannon", 2, 20)
	f.Add("ok", "oh", 2, 50)
	f.Add("a", "completely different thing", 3, 10)
	f.Fuzz(func(t *testing.T, sd, sq string, n, alphaPct int) {
		if len(sd) > 255 || len(sq) > 400 {
			return
		}
		if n < 0 {
			n = -n
		}
		if alphaPct < 0 {
			alphaPct = -alphaPct
		}
		n = n%5 + 1
		alphaPct = alphaPct%100 + 1
		codec, err := NewCodec(n, float64(alphaPct)/100)
		if err != nil {
			t.Fatal(err)
		}
		sig := codec.Encode(sd)
		est := codec.NewQueryString(sq).Est(sig)
		if ed := float64(gram.EditDistance(sq, sd)); est > ed {
			t.Fatalf("est(%q, c(%q)) = %v > ed %v (n=%d α=%d%%)", sq, sd, est, ed, n, alphaPct)
		}
		// Self-hit: the data string estimates itself at 0.
		if self := codec.NewQueryString(sd).Est(sig); self != 0 {
			t.Fatalf("est(%q, c(%q)) = %v, want 0", sd, sd, self)
		}
	})
}
