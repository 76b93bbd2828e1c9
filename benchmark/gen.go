package main

// The frozen generator: data, queries and op streams for every workload.
//
// It is self-contained on purpose. It imports no generator of the repo
// (internal/dataset, internal/workload, internal/bench) and not even
// math/rand, so no later edit elsewhere can silently change what a seed
// means: the PRNG, the samplers and the schema all live in this file. The
// engine sees only the rows and queries produced here.
//
// The statistics are the ones the paper publishes for its Google Base crawl
// (§V-A): 1,147 attributes of which 1,081 are text, Zipfian attribute
// popularity, 16.3 defined attributes per tuple, a mean string of 16.8
// bytes. The schema (which rank is numeric, vocabulary sizes, numeric
// ranges) is fixed; the seed drives the vocabulary words, the rows, the
// queries and the op order.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
)

const (
	numAttrs      = 1147
	numNumeric    = 66
	numericEvery  = 17 // rank%17 == 1 is numeric, for the first 66 such ranks
	attrZipfS     = 1.07
	wordZipfS     = 1.3
	meanAttrs     = 16.3
	multiStrProb  = 0.10
	rowTypoProb   = 0.02
	queryTerms    = 3
	queryK        = 10
	queryTypoProb = 0.25
)

// rng is splitmix64: tiny, fast and frozen here.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0,n); the modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// poisson draws a Poisson(mean) variate by Knuth's method (mean ≈ 16).
func (r *rng) poisson(mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.float()
		if p <= l || k > 1000 {
			return k
		}
		k++
	}
}

// zipfCDF returns the cumulative distribution of P(k) ∝ (1+k)^-s, k in [0,n).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(1+k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (r *rng) zipf(cdf []float64) int {
	k := sort.SearchFloat64s(cdf, r.float())
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k
}

// cell is one defined value of a row: a number, or one to three strings.
type cell struct {
	attr int // attribute rank
	num  float64
	strs []string // nil on a numeric attribute
}

// row is one generated tuple, cells sorted by attribute rank.
type row struct {
	cells     []cell
	userBytes int // Σ string lengths + 8 per number
}

func (r *row) find(attr int) *cell {
	i := sort.Search(len(r.cells), func(i int) bool { return r.cells[i].attr >= attr })
	if i < len(r.cells) && r.cells[i].attr == attr {
		return &r.cells[i]
	}
	return nil
}

// term is one expected value of a query; str is empty on a numeric attribute.
type term struct {
	attr int
	num  float64
	str  string
}

type query struct{ terms []term }

// generator produces the rows of one run. Rows come from one sequential
// stream, so the first n rows are the same whatever is drawn after them.
type generator struct {
	seed    int64
	names   []string
	numeric []bool
	rows    *rng
	attrCDF []float64
	wordCDF map[int][]float64 // vocabulary size → CDF
	vocab   [][]string        // rank → word → string, made on first use
}

func newGenerator(seed int64) *generator {
	g := &generator{
		seed:    seed,
		names:   make([]string, numAttrs),
		numeric: make([]bool, numAttrs),
		rows:    newRNG(seed, 1),
		attrCDF: zipfCDF(numAttrs, attrZipfS),
		wordCDF: make(map[int][]float64),
		vocab:   make([][]string, numAttrs),
	}
	for r := range g.names {
		// Numeric attributes sit at every popularity level, like Price and
		// Year in the crawl, so queries mix kinds at every selectivity.
		if r%numericEvery == 1 && r/numericEvery < numNumeric {
			g.numeric[r] = true
			g.names[r] = fmt.Sprintf("n%04d", r)
		} else {
			g.names[r] = fmt.Sprintf("t%04d", r)
		}
	}
	return g
}

// vocabSize shrinks with rank: popular attributes have rich vocabularies,
// tail attributes a handful of values.
func vocabSize(rank int) int {
	if v := 2048 / (1 + rank/8); v > 12 {
		return v
	}
	return 12
}

const (
	consonants = "bcdfghjklmnpqrstvwxz"
	vowels     = "aeiouy"
	digits     = "0123456789"
)

// word synthesizes word w of attribute rank's vocabulary: one to three
// loosely pronounceable words of 13 to 21 bytes in all. Letters mix freely
// (no rigid consonant-vowel alternation, which would make unrelated words
// share most 2-grams) with the odd digit, as in product names.
func (g *generator) word(rank, w int) string {
	if g.vocab[rank] == nil {
		g.vocab[rank] = make([]string, vocabSize(rank))
	}
	if s := g.vocab[rank][w]; s != "" {
		return s
	}
	r := newRNG(g.seed, 1<<32|uint64(rank)<<12|uint64(w))
	target := 13 + r.intn(9)
	b := make([]byte, 0, target)
	for len(b) < target {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		wl := 4 + r.intn(5)
		if rem := target - len(b); wl > rem {
			wl = rem
		}
		for i := 0; i < wl; i++ {
			switch u := r.float(); {
			case u < 0.08:
				b = append(b, digits[r.intn(len(digits))])
			case u < 0.52:
				b = append(b, vowels[r.intn(len(vowels))])
			default:
				b = append(b, consonants[r.intn(len(consonants))])
			}
		}
	}
	g.vocab[rank][w] = string(b)
	return g.vocab[rank][w]
}

// typo applies one random edit: the community-input noise that motivates
// ranking by edit distance (the paper's "Cannon" for "Canon").
func typo(r *rng, s string) string {
	b := []byte(s)
	p := r.intn(len(b))
	switch r.intn(3) {
	case 0:
		b[p] = byte('a' + r.intn(26))
	case 1:
		if len(b) > 1 {
			b = append(b[:p], b[p+1:]...)
		}
	default:
		b = append(b[:p+1], b[p:]...)
	}
	return string(b)
}

// numValue draws from the attribute's own range: magnitudes differ per
// attribute like prices, years and pixel counts.
func numValue(r *rng, rank int) float64 {
	scale := math.Pow(10, float64(1+rank%6))
	switch rank % 3 {
	case 0:
		return math.Floor(r.float() * scale)
	case 1:
		return 1950 + float64(r.intn(60))
	default:
		u := r.float()
		return math.Floor(u * u * scale)
	}
}

// next generates the next row of the stream.
func (g *generator) next() *row {
	r := g.rows
	n := r.poisson(meanAttrs)
	if n < queryTerms {
		n = queryTerms // every row can seed a query
	}
	seen := make(map[int]bool, n)
	out := &row{cells: make([]cell, 0, n)}
	for len(out.cells) < n {
		rank := r.zipf(g.attrCDF)
		if seen[rank] {
			continue
		}
		seen[rank] = true
		c := cell{attr: rank}
		if g.numeric[rank] {
			c.num = numValue(r, rank)
			out.userBytes += 8
		} else {
			k := 1
			if r.float() < multiStrProb {
				k = 2 + r.intn(2)
			}
			vs := vocabSize(rank)
			cdf := g.wordCDF[vs]
			if cdf == nil {
				cdf = zipfCDF(vs, wordZipfS)
				g.wordCDF[vs] = cdf
			}
			for len(c.strs) < k {
				s := g.word(rank, r.zipf(cdf))
				if r.float() < rowTypoProb {
					s = typo(r, s)
				}
				c.strs = append(c.strs, s)
				out.userBytes += len(s)
			}
		}
		out.cells = append(out.cells, c)
	}
	sort.Slice(out.cells, func(i, j int) bool { return out.cells[i].attr < out.cells[j].attr })
	return out
}

func (g *generator) take(n int) []*row {
	out := make([]*row, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// queryFrom builds a §V-A query from one stored row: three of its defined
// values, a quarter of the text terms carrying one typo.
func queryFrom(r *rng, src *row) *query {
	idx := make([]int, len(src.cells))
	for i := range idx {
		idx[i] = i
	}
	r.shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	q := &query{terms: make([]term, 0, queryTerms)}
	for _, i := range idx[:queryTerms] {
		c := src.cells[i]
		t := term{attr: c.attr, num: c.num}
		if c.strs != nil {
			t.str = c.strs[r.intn(len(c.strs))]
			if r.float() < queryTypoProb {
				t.str = typo(r, t.str)
			}
		}
		q.terms = append(q.terms, t)
	}
	return q
}

// liveSet is the benchmark's own record of which row handles are live; it
// supports uniform sampling and removal in O(1).
type liveSet struct {
	handles []int
	pos     map[int]int
}

func newLiveSet(n int) *liveSet {
	l := &liveSet{handles: make([]int, n), pos: make(map[int]int, n)}
	for i := range l.handles {
		l.handles[i] = i
		l.pos[i] = i
	}
	return l
}

func (l *liveSet) add(h int) {
	l.pos[h] = len(l.handles)
	l.handles = append(l.handles, h)
}

func (l *liveSet) remove(h int) {
	i := l.pos[h]
	last := l.handles[len(l.handles)-1]
	l.handles[i] = last
	l.pos[last] = i
	l.handles = l.handles[:len(l.handles)-1]
	delete(l.pos, h)
}

func (l *liveSet) sample(r *rng) int { return l.handles[r.intn(len(l.handles))] }

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
	opUpdate
	opSync
)

func (k opKind) String() string {
	return [...]string{"search", "insert", "delete", "update", "sync"}[k]
}

// op is one operation of a stream. Rows are named by handle (their index in
// the run's row table), never by tuple id, so the stream does not depend on
// anything the engine returns.
type op struct {
	kind   opKind
	handle int    // delete, update: the victim
	fresh  int    // insert, update: the new row's handle
	q      *query // search
}

// churn generation constants: delete 60%, one search per 8 writes (enough
// searches in a run for the latency percentiles), one update per 16 inserts,
// Sync after every 256 writes (the stated flush policy).
const (
	churnDeleteShare = 0.60
	churnSearchEvery = 8
	churnUpdateEvery = 16
	churnSyncEvery   = 256
)

// churnStream generates shrink-then-regrow cycles over a live set.
type churnStream struct {
	g      *generator
	r      *rng
	rows   []*row // handle → row; grows as cycles insert
	live   *liveSet
	writes int
}

func newChurnStream(g *generator, rows []*row, seed int64) *churnStream {
	return &churnStream{g: g, r: newRNG(seed, 3), rows: rows, live: newLiveSet(len(rows))}
}

func (c *churnStream) wrote(ops []op) []op {
	c.writes++
	if c.writes%churnSyncEvery == 0 {
		ops = append(ops, op{kind: opSync})
	}
	return ops
}

func (c *churnStream) search(ops []op) []op {
	return append(ops, op{kind: opSearch, q: queryFrom(c.r, c.rows[c.live.sample(c.r)])})
}

func (c *churnStream) freshRow() int {
	c.rows = append(c.rows, c.g.next())
	return len(c.rows) - 1
}

// cycle returns one shrink-then-regrow pass: delete 60% of the live rows in
// random order with a search among the survivors every 8 deletes, then
// insert as many fresh rows with a search every 8 inserts and an update
// every 16. The live count is the same after the cycle as before it.
func (c *churnStream) cycle() []op {
	victims := append([]int(nil), c.live.handles...)
	c.r.shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:int(float64(len(victims))*churnDeleteShare)]
	var ops []op
	for i, h := range victims {
		c.live.remove(h)
		ops = c.wrote(append(ops, op{kind: opDelete, handle: h}))
		if (i+1)%churnSearchEvery == 0 {
			ops = c.search(ops)
		}
	}
	for i := range victims {
		h := c.freshRow()
		c.live.add(h)
		ops = c.wrote(append(ops, op{kind: opInsert, fresh: h}))
		if (i+1)%churnUpdateEvery == 0 {
			old, h := c.live.sample(c.r), c.freshRow()
			c.live.remove(old)
			c.live.add(h)
			ops = c.wrote(append(ops, op{kind: opUpdate, handle: old, fresh: h}))
		}
		if (i+1)%churnSearchEvery == 0 {
			ops = c.search(ops)
		}
	}
	return ops
}

// streamHash fingerprints a workload's inputs: equal seeds give equal
// hashes, different seeds different ones.
type streamHash struct{ h hash.Hash }

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.h.Write(b[:])
}

func (s *streamHash) str(v string) {
	s.u64(uint64(len(v)))
	s.h.Write([]byte(v))
}

func (s *streamHash) row(r *row) {
	s.u64(uint64(len(r.cells)))
	for _, c := range r.cells {
		s.u64(uint64(c.attr))
		s.u64(math.Float64bits(c.num))
		s.u64(uint64(len(c.strs)))
		for _, v := range c.strs {
			s.str(v)
		}
	}
}

func (s *streamHash) query(q *query) {
	for _, t := range q.terms {
		s.u64(uint64(t.attr))
		s.u64(math.Float64bits(t.num))
		s.str(t.str)
	}
}

func (s *streamHash) ops(ops []op, rows []*row) {
	for _, o := range ops {
		s.u64(uint64(o.kind))
		switch o.kind {
		case opSearch:
			s.query(o.q)
		case opDelete:
			s.u64(uint64(o.handle))
		case opInsert:
			s.row(rows[o.fresh])
		case opUpdate:
			s.u64(uint64(o.handle))
			s.row(rows[o.fresh])
		}
	}
}

func (s *streamHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)[:8]) }
