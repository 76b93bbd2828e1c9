package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/signature"
)

// TestTextBoundLowerBound is the property behind "no false negatives" for
// text: the bound termState.textBound gives a value — the smallest estimate
// over its strings' elements — never exceeds the edit distance from the query
// string to the value's nearest string. It walks random pairs on a small
// alphabet, permuted pairs (the same byte multiset, so the lanes agree and
// only the length can bound), saturated lanes (≥ 4 bytes in one bucket on
// either side), empty strings, 255-byte data strings, bytes ≥ 0x80, query
// strings longer than the 255 bytes a data string may have, and values of one
// to four strings, at cH widths from one byte to several words.
func TestTextBoundLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	str := func(n int, alphabet string) string {
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
	permute := func(s string) string {
		b := []byte(s)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return string(b)
	}
	type pair struct{ sq, sd string }
	cases := map[string]func() pair{
		"random": func() pair { return pair{str(rng.Intn(30), "abcdefgh"), str(rng.Intn(30), "abcdefgh")} },
		"permuted": func() pair {
			s := str(rng.Intn(40), "abcdefgh ")
			return pair{permute(s), s}
		},
		"saturated-data": func() pair {
			return pair{str(rng.Intn(12), "abc"), strings.Repeat("a", 4+rng.Intn(20)) + str(rng.Intn(6), "xyz")}
		},
		"saturated-query": func() pair {
			return pair{strings.Repeat("q", 4+rng.Intn(20)) + str(rng.Intn(6), "ab"), str(rng.Intn(12), "qab")}
		},
		"empty-data":  func() pair { return pair{str(rng.Intn(20), "abcd"), ""} },
		"empty-query": func() pair { return pair{"", str(rng.Intn(20), "abcd")} },
		"both-empty":  func() pair { return pair{"", ""} },
		"data-255":    func() pair { return pair{str(rng.Intn(300), "abcdefgh"), str(255, "abcdefgh")} },
		"high-bytes":  func() pair { return pair{str(rng.Intn(30), "\x80\xa5\xff\xfe\x81a"), str(rng.Intn(30), "")} },
		"query-over-255": func() pair {
			return pair{str(256+rng.Intn(200), "abcdefgh"), str(rng.Intn(256), "abcdefgh")}
		},
		"one-edit": func() pair {
			s := str(1+rng.Intn(30), "")
			b := []byte(s)
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
			return pair{string(b), s}
		},
	}
	for _, alpha := range []float64{0.01, 0.2, 1} {
		for _, n := range []int{1, 2, 4} {
			codec, err := signature.NewCodec(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for name, draw := range cases {
				for trial := 0; trial < 40; trial++ {
					p := draw()
					// A value of one to four strings: the pair's data string
					// and up to three more, the pair's unrelated to the query.
					strs := []string{p.sd}
					for extra := rng.Intn(4); extra > 0; extra-- {
						strs = append(strs, str(rng.Intn(40), "abcdefgh\x90"))
					}
					rng.Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
					ts := &termState{qs: codec.NewQueryString(p.sq)}
					sigs := make([]signature.Sig, len(strs))
					nearest := -1
					for i, s := range strs {
						sigs[i] = codec.Encode(s)
						if ed := gram.EditDistance(p.sq, s); nearest < 0 || ed < nearest {
							nearest = ed
						}
					}
					if got := ts.textBound(sigs); got > float64(nearest) {
						t.Fatalf("%s α=%v n=%d: bound %v over %q > ed %d from %q", name, alpha, n, got, strs, nearest, p.sq)
					}
				}
			}
		}
	}
}
