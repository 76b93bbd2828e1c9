// Package signature implements the approximation vector of a data string in
// the iVA-file's vector lists (§III-B). An element keeps the paper's two parts
// and widths — cL(s), the string length in one byte (the table layer caps
// strings at 255 bytes), and cH(s), l = 8·⌈α·(|s|+n−1)⌉ bits — but cH holds a
// bucketed character histogram instead of the nG-signature: B = l/2 two-bit
// lanes, lane b = min(3, #{i : s[i] mod B = b}), written MSB-first. Est turns
// it into a lower bound of the edit distance (Prop. 3.3's contract, so no
// false negatives): a substitution moves the lanes' L1 distance by at most 2
// and the length by 0, an insertion or deletion moves each by at most 1, and
// bucketing or clamping at 3 never raises a lane's difference. The paper's
// nG-signature lives on as ablate-signature's reference (internal/bench).
package signature

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Sig is an encoded element. H packs the cH bits in the bitio word layout:
// stream bit i is bit 63−(i mod 64) of H[i/64], so lane b is bits
// 63−2(b mod 32) (high) and 62−2(b mod 32) (low) of H[b/32].
type Sig struct {
	Len int      // string length in bytes (the cL part)
	H   []uint64 // cH: the lane counts
}

// Codec encodes strings into elements for a relative vector length α and a
// width offset n (the paper's gram length); n and α set only the cH width.
type Codec struct {
	n     int
	alpha float64

	// bits is l per data-string length (at most 255 bytes in the table
	// file), filled at construction: every element a cursor decodes asks.
	bits [maxLenPlans]uint32
}

const (
	maxLenPlans = 1 << LenBits       // one more than the longest length the cL byte holds
	laneCap     = 3                  // the largest count a two-bit lane holds
	hiBits      = 0xAAAAAAAAAAAAAAAA // each lane's high bit in a cH word
)

// NewCodec returns a codec. n is a width offset, the paper's gram length in
// the width rule (the index builds every codec with n = 2; the reference
// nG-signature of internal/bench sweeps it); it must be ≥ 1, and α in (0, 1].
func NewCodec(n int, alpha float64) (*Codec, error) {
	if n < 1 {
		return nil, fmt.Errorf("signature: n = %d, want >= 1", n)
	}
	if !(alpha > 0 && alpha <= 1) { // rejects NaN too
		return nil, fmt.Errorf("signature: alpha = %v, want in (0,1]", alpha)
	}
	c := &Codec{n: n, alpha: alpha}
	for strLen := range c.bits {
		c.bits[strLen] = uint32(c.sigBits(strLen))
	}
	return c, nil
}

// N returns the width offset n.
func (c *Codec) N() int { return c.n }

// Alpha returns the relative vector length.
func (c *Codec) Alpha() float64 { return c.alpha }

// LenBits is the width of the cL length field.
const LenBits = 8

// SigBits returns the cH width in bits for a data string of the given byte
// length: 8·⌈α·(len+n−1)⌉, with a one-byte floor.
func (c *Codec) SigBits(strLen int) int {
	if uint(strLen) < maxLenPlans {
		return int(c.bits[strLen])
	}
	return c.sigBits(strLen)
}

func (c *Codec) sigBits(strLen int) int {
	return 8 * max(1, int(math.Ceil(c.alpha*float64(strLen+c.n-1))))
}

// text is what Encode accepts: decoded strings, or the string bytes of a
// verified table record.
type text interface{ ~string | ~[]byte }

// Encode returns the element of data string s.
func (c *Codec) Encode(s string) Sig { return encode(c, nil, s) }

// EncodeBytes is Encode over string bytes, with the cH words taken from dst
// when it has room for them: a build encodes every string of a table through
// one buffer. The element is bit-identical to Encode's.
func (c *Codec) EncodeBytes(dst []uint64, s []byte) Sig { return encode(c, dst, s) }

// encode counts each byte into lane s[i] mod B in place, saturating at 3.
func encode[T text](c *Codec, dst []uint64, s T) Sig {
	l := c.SigBits(len(s))
	nw := (l + 63) / 64
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	}
	h := dst[:nw]
	clear(h)
	lanes := uint32(l / 2)
	for i := 0; i < len(s); i++ {
		b := uint32(s[i]) % lanes
		w, sh := b/32, 62-2*(b%32)
		if (h[w]>>sh)&laneCap != laneCap {
			h[w] += 1 << sh
		}
	}
	return Sig{Len: len(s), H: h}
}

// QueryString pre-processes a query string so that estimating against many
// elements is cheap. Elements of different widths have different lane counts,
// so the query's lane masks are kept per width (a plan) and filled lazily as
// the scan meets a width. A filled slot is immutable and published
// atomically, so concurrent stripe workers estimate without a lock; two
// workers racing on an empty slot compute the same plan.
type QueryString struct {
	codec *Codec
	str   string
	plans [maxLenPlans]atomic.Pointer[lenPlan] // by data length; one plan serves a width
}

// lenPlan is the query's lane counts under one cH width as thermometer masks:
// word w of cH is compared against ge[w], where ge[w][t−1] has a lane's high
// bit set when the query's count for that lane, clamped at 3, is ≥ t. A
// one-word plan (l ≤ 64, every string up to 39 bytes at the default α) keeps
// its masks in one, so it is a single allocation.
type lenPlan struct {
	ge  [][laneCap]uint64
	one [1][laneCap]uint64
}

// NewQueryString prepares sq for estimation under the codec.
func (c *Codec) NewQueryString(sq string) *QueryString { return &QueryString{codec: c, str: sq} }

// plan computes the query's plan for a strLen-byte element's width and, for
// a length the cL byte holds, publishes it in the slot of every length of
// that width.
func (q *QueryString) plan(strLen int) *lenPlan {
	l := q.codec.SigBits(strLen)
	lanes := uint32(l / 2)
	p := new(lenPlan)
	if nw := (lanes + 31) / 32; nw == 1 {
		p.ge = p.one[:]
	} else {
		p.ge = make([][laneCap]uint64, nw)
	}
	// Count the query's bytes into the lanes a thermometer bit at a time:
	// the k-th byte of a lane (k ≤ 3) sets that lane's bit in ge[·][k−1],
	// which is the first clear one of the three.
	for i := 0; i < len(q.str); i++ {
		b := uint32(q.str[i]) % lanes
		ge, bit := &p.ge[b/32], uint64(1)<<(63-2*(b%32))
		for t := range ge {
			if ge[t]&bit == 0 {
				ge[t] |= bit
				break
			}
		}
	}
	for n := range q.plans {
		if int(q.codec.bits[n]) == l {
			q.plans[n].Store(p)
		}
	}
	return p
}

// Est returns max(|Δlen|, ⌈(L1 + |Δlen|)/2⌉) with L1 = Σ_b |min(q_b, 3) −
// lane_b|, a lower bound of ed(sq, sd) for the data string sd of sig. A lane
// value v is the thermometer (v ≥ 1, v ≥ 2, v ≥ 3) = (hi|lo, hi, hi&lo) of its
// bits, and |u − v| counts the thermometer bits that differ: L1 is three
// popcounts a cH word. A one-word cH takes EstWord.
func (q *QueryString) Est(sig Sig) float64 {
	if len(sig.H) == 1 {
		return q.EstWord(sig.Len, sig.H[0])
	}
	var p *lenPlan
	if uint(sig.Len) < maxLenPlans {
		p = q.plans[sig.Len].Load()
	}
	if p == nil {
		p = q.plan(sig.Len)
	}
	l1 := 0
	for w, x := range sig.H {
		l1 += laneL1(&p.ge[w], x)
	}
	return q.bound(sig.Len, l1)
}

// EstWord is Est for an element whose cH is the one word h: every string of
// up to 39 bytes at the default α. A one-word plan's masks are inline.
func (q *QueryString) EstWord(strLen int, h uint64) float64 {
	var p *lenPlan
	if uint(strLen) < maxLenPlans {
		p = q.plans[strLen].Load()
	}
	if p == nil {
		p = q.plan(strLen)
	}
	return q.bound(strLen, laneL1(&p.one[0], h))
}

// laneL1 is the lanes' L1 distance between one cH word x and the query's
// thermometer masks ge for that word.
func laneL1(ge *[laneCap]uint64, x uint64) int {
	hi, lo := x&hiBits, (x<<1)&hiBits
	return bits.OnesCount64((hi|lo)^ge[0]) + bits.OnesCount64(hi^ge[1]) + bits.OnesCount64((hi&lo)^ge[2])
}

// bound is the estimate from an element's L1; |Δlen| is taken without a
// branch, as its sign follows the data.
func (q *QueryString) bound(strLen, l1 int) float64 {
	dl := len(q.str) - strLen
	m := dl >> (strconv.IntSize - 1)
	dl = (dl ^ m) - m
	return float64(max(dl, (l1+dl+1)>>1))
}
