// Package dataset generates the synthetic Google-Base-like workload the
// experiments run on. The paper evaluates on a crawled Google Base subset
// whose published statistics are: 779,019 tuples, 1,147 attributes of which
// 1,081 are text, 16.3 defined attributes per tuple on average, and a mean
// string length of 16.8 bytes. Google Base was shut down in 2011 and the
// crawl was never released, so this generator synthesizes data matched to
// those statistics (DESIGN.md §5 documents the substitution):
//
//   - attribute popularity is Zipfian — a few near-universal attributes
//     (Type, Price, ...) and a long sparse tail,
//   - each tuple defines ~Poisson(16.3) attributes sampled by popularity,
//   - text values draw from per-attribute vocabularies of short multi-word
//     strings (mean ≈ 16.8 bytes); some values hold several strings,
//   - a small typo rate mutates strings, reflecting the community-input
//     noise that motivates edit-distance ranking,
//   - numeric attributes draw from per-attribute ranges of very different
//     magnitudes (prices, years, pixel counts).
//
// Generation is deterministic in (Config, tuple index), so query workloads
// can re-derive any stored value without keeping the dataset in memory.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/table"
)

// Config parameterizes the generator. Zero values select the paper's
// statistics (at a caller-chosen scale).
type Config struct {
	Tuples        int     // number of tuples to generate
	TextAttrs     int     // default 1081
	NumAttrs      int     // default 66
	MeanAttrs     float64 // mean defined attributes per tuple; default 16.3
	MeanStringLen int     // target mean string bytes; default 17 (≈16.8)
	MultiStrProb  float64 // probability a text value has >1 string; default 0.10
	MaxStrings    int     // max strings per text value; default 3
	TypoProb      float64 // per-string typo probability; default 0.02
	ZipfS         float64 // attribute popularity skew; default 1.07
	Seed          int64
}

func (c Config) withDefaults() Config {
	if c.TextAttrs == 0 {
		c.TextAttrs = 1081
	}
	if c.NumAttrs == 0 {
		c.NumAttrs = 66
	}
	if c.MeanAttrs == 0 {
		c.MeanAttrs = 16.3
	}
	if c.MeanStringLen == 0 {
		c.MeanStringLen = 17
	}
	if c.MultiStrProb == 0 {
		c.MultiStrProb = 0.10
	}
	if c.MaxStrings == 0 {
		c.MaxStrings = 3
	}
	if c.TypoProb == 0 {
		c.TypoProb = 0.02
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.07
	}
	return c
}

// Generator produces tuples and queries for one configuration.
type Generator struct {
	cfg   Config
	kinds []model.Kind // per attribute rank
	vocab []int        // vocabulary size per attribute
}

// New returns a generator for cfg.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	total := cfg.TextAttrs + cfg.NumAttrs
	g := &Generator{cfg: cfg, kinds: make([]model.Kind, total), vocab: make([]int, total)}
	// Spread numeric attributes across the popularity ranks so queries mix
	// kinds at every selectivity, like Price/Year in the real data.
	numEvery := total / cfg.NumAttrs
	if numEvery < 2 {
		numEvery = 2
	}
	numLeft := cfg.NumAttrs
	for rank := 0; rank < total; rank++ {
		if numLeft > 0 && rank%numEvery == 1 {
			g.kinds[rank] = model.KindNumeric
			numLeft--
		} else {
			g.kinds[rank] = model.KindText
		}
	}
	// Leftover numeric attributes (rounding) take the last text slots.
	for rank := total - 1; numLeft > 0 && rank >= 0; rank-- {
		if g.kinds[rank] == model.KindText {
			g.kinds[rank] = model.KindNumeric
			numLeft--
		}
	}
	// Vocabulary sizes shrink with rank: popular attributes have rich
	// vocabularies, tail attributes only a handful of values.
	for rank := 0; rank < total; rank++ {
		v := 2048 / (1 + rank/8)
		if v < 12 {
			v = 12
		}
		g.vocab[rank] = v
	}
	return g
}

// Config returns the effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// NumAttrsTotal returns the attribute universe size.
func (g *Generator) NumAttrsTotal() int { return len(g.kinds) }

// AttrName returns the canonical name of attribute rank r.
func (g *Generator) AttrName(r int) string {
	if g.kinds[r] == model.KindNumeric {
		return fmt.Sprintf("num_%04d", r)
	}
	return fmt.Sprintf("attr_%04d", r)
}

// AttrKind returns the kind of attribute rank r.
func (g *Generator) AttrKind(r int) model.Kind { return g.kinds[r] }

func (g *Generator) tupleRNG(i int) *rand.Rand {
	return rand.New(rand.NewSource(g.cfg.Seed*1_000_003 + int64(i)*7_919 + 13))
}

// poisson draws a Poisson(mean) variate (Knuth's method; mean ≈ 16 here).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// sampleAttrs draws n distinct attribute ranks by Zipf popularity.
func (g *Generator) sampleAttrs(rng *rand.Rand, n int) []int {
	total := len(g.kinds)
	if n > total {
		n = total
	}
	z := rand.NewZipf(rng, g.cfg.ZipfS, 1, uint64(total-1))
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		r := int(z.Uint64())
		if seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

// Values generates tuple i's defined (attribute rank → value) map.
func (g *Generator) Values(i int) map[int]model.Value {
	rng := g.tupleRNG(i)
	n := poisson(rng, g.cfg.MeanAttrs)
	if n < 1 {
		n = 1
	}
	out := make(map[int]model.Value, n)
	for _, rank := range g.sampleAttrs(rng, n) {
		if g.kinds[rank] == model.KindNumeric {
			out[rank] = model.Num(g.numValue(rng, rank))
		} else {
			k := 1
			if rng.Float64() < g.cfg.MultiStrProb {
				k = 2 + rng.Intn(g.cfg.MaxStrings-1)
			}
			strs := make([]string, k)
			for s := range strs {
				strs[s] = g.textValue(rng, rank)
			}
			out[rank] = model.Text(strs...)
		}
	}
	return out
}

// numValue draws from attribute rank's characteristic range: magnitudes
// vary per attribute like prices vs. years vs. pixel counts.
func (g *Generator) numValue(rng *rand.Rand, rank int) float64 {
	scale := math.Pow(10, float64(1+rank%6)) // 10 .. 1e6
	switch rank % 3 {
	case 0: // uniform range
		return math.Floor(rng.Float64() * scale)
	case 1: // year-like narrow band
		return 1950 + float64(rng.Intn(60))
	default: // log-normal-ish prices
		return math.Floor(math.Exp(rng.NormFloat64()*0.8) * scale / 10)
	}
}

// textValue draws a vocabulary string of attribute rank, with typo noise.
// Word popularity within an attribute is itself Zipfian: community data
// repeats common values ("Canon", "Digital Camera") across many tuples,
// which is what lets top-k distances tighten quickly.
func (g *Generator) textValue(rng *rand.Rand, rank int) string {
	z := rand.NewZipf(rng, 1.3, 1, uint64(g.vocab[rank]-1))
	word := g.VocabWord(rank, int(z.Uint64()))
	if rng.Float64() < g.cfg.TypoProb {
		word = typo(rng, word)
	}
	return word
}

// VocabWord deterministically synthesizes word w of attribute rank's
// vocabulary: one to three pronounceable words totalling ≈ MeanStringLen
// bytes.
func (g *Generator) VocabWord(rank, w int) string {
	rng := rand.New(rand.NewSource(g.cfg.Seed*69_069 + int64(rank)*104_729 + int64(w)))
	target := g.cfg.MeanStringLen + rng.Intn(9) - 4 // mean-centered spread
	if target < 3 {
		target = 3
	}
	var b []byte
	for len(b) < target {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		wl := 4 + rng.Intn(5)
		if rem := target - len(b); wl > rem {
			wl = rem
		}
		b = appendWord(b, rng, wl)
	}
	return string(b)
}

const (
	consonants = "bcdfghjklmnpqrstvwxz"
	vowels     = "aeiouy"
	digits     = "0123456789"
)

// appendWord emits a pronounceable-but-diverse word: mostly
// consonant/vowel mixing without a rigid alternation (rigid CV patterns
// would make unrelated words share most of their 2-grams and destroy the
// n-gram filter's realism), with occasional digits as in real product
// names ("eos450d").
func appendWord(b []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.08:
			b = append(b, digits[rng.Intn(len(digits))])
		case r < 0.52:
			b = append(b, vowels[rng.Intn(len(vowels))])
		default:
			b = append(b, consonants[rng.Intn(len(consonants))])
		}
	}
	return b
}

// typo applies one random edit (the community-noise model behind Fig. 2's
// "Cannon" example).
func typo(rng *rand.Rand, s string) string {
	b := []byte(s)
	if len(b) == 0 {
		return s
	}
	p := rng.Intn(len(b))
	switch rng.Intn(3) {
	case 0: // substitution
		b[p] = byte('a' + rng.Intn(26))
	case 1: // deletion
		if len(b) > 1 {
			b = append(b[:p], b[p+1:]...)
		}
	default: // duplication-style insertion
		b = append(b[:p], append([]byte{b[p]}, b[p:]...)...)
	}
	return string(b)
}

// Populate registers the attribute universe in tbl's catalog and appends all
// cfg.Tuples tuples. It returns the rank→AttrID mapping.
func (g *Generator) Populate(tbl *table.Table) ([]model.AttrID, error) {
	cat := tbl.Catalog()
	ids := make([]model.AttrID, len(g.kinds))
	for r := range g.kinds {
		id, err := cat.AddAttr(g.AttrName(r), g.kinds[r])
		if err != nil {
			return nil, err
		}
		ids[r] = id
	}
	for i := 0; i < g.cfg.Tuples; i++ {
		vals := g.Values(i)
		mapped := make(map[model.AttrID]model.Value, len(vals))
		for rank, v := range vals {
			mapped[ids[rank]] = v
		}
		if _, _, err := tbl.Append(mapped); err != nil {
			return nil, fmt.Errorf("dataset: tuple %d: %w", i, err)
		}
	}
	return ids, nil
}

// Query workload ---------------------------------------------------------

// QueryConfig parameterizes a query set (§V-A: 50 queries, the first 10 for
// cache warming; values sampled from stored tuples so the query distribution
// follows the data distribution).
type QueryConfig struct {
	Values int // defined values per query (Table I default 3)
	K      int // top-k (Table I default 10)
	Count  int // total queries (default 50)
	Warm   int // leading queries used for warming (default 10)
	// QueryTypoProb injects an edit into a sampled query string: users
	// mistype ("Cannon" for "Canon", the paper's Fig. 2), so the best
	// match is usually at a small positive edit distance rather than 0.
	// Negative disables; zero selects the default 0.25.
	QueryTypoProb float64
	Seed          int64
}

func (qc QueryConfig) withDefaults() QueryConfig {
	if qc.Values == 0 {
		qc.Values = 3
	}
	if qc.K == 0 {
		qc.K = 10
	}
	if qc.Count == 0 {
		qc.Count = 50
	}
	if qc.Warm == 0 && qc.Count >= 20 {
		qc.Warm = 10
	}
	if qc.QueryTypoProb == 0 {
		qc.QueryTypoProb = 0.25
	}
	if qc.QueryTypoProb < 0 {
		qc.QueryTypoProb = 0
	}
	return qc
}

// SortedRanks returns the ranks a tuple defines in ascending order: the
// deterministic order in which to register them in a catalog.
func SortedRanks(vals map[int]model.Value) []int {
	ranks := make([]int, 0, len(vals))
	for r := range vals {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// drawnTerm is one query term sampled from the data: the attribute rank and
// the value to search for (Num for a numeric attribute, Str for a text one).
type drawnTerm struct {
	rank int
	num  float64
	str  string
}

// drawTerms samples n query terms from tuples 0 … tuples-1, the way §V-A
// samples them: the attributes a random tuple defines, in random order, each
// searched for with its stored value — one of a text value's strings,
// mistyped with probability typoProb. It returns nil when the tuple and its
// 49 successors define fewer than n attributes.
func (g *Generator) drawTerms(rng *rand.Rand, tuples, n int, typoProb float64) []drawnTerm {
	ti := rng.Intn(tuples)
	vals := g.Values(ti)
	ranks := SortedRanks(vals)
	// Queries may need more attributes than one tuple defines; borrow from
	// further tuples when short, like a user combining fields.
	for extra := 1; len(ranks) < n && extra < 50; extra++ {
		more := g.Values((ti + extra) % tuples)
		for _, r := range SortedRanks(more) {
			if _, dup := vals[r]; !dup {
				vals[r] = more[r]
				ranks = append(ranks, r)
			}
			if len(ranks) >= n {
				break
			}
		}
	}
	if len(ranks) < n {
		return nil
	}
	rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	out := make([]drawnTerm, n)
	for i, r := range ranks[:n] {
		v := vals[r]
		out[i] = drawnTerm{rank: r, num: v.Num}
		if v.Kind == model.KindText {
			s := v.Strs[rng.Intn(len(v.Strs))]
			if rng.Float64() < typoProb {
				s = typo(rng, s)
			}
			out[i].str = s
		}
	}
	return out
}

// Queries builds a query set against the generated data. ids maps attribute
// rank to catalog id (as returned by Populate).
func (g *Generator) Queries(qc QueryConfig, ids []model.AttrID) ([]*model.Query, int) {
	qc = qc.withDefaults()
	rng := rand.New(rand.NewSource(qc.Seed*2_654_435_761 + 17))
	queries := make([]*model.Query, 0, qc.Count)
	for len(queries) < qc.Count {
		terms := g.drawTerms(rng, g.cfg.Tuples, qc.Values, qc.QueryTypoProb)
		if terms == nil {
			continue
		}
		q := &model.Query{K: qc.K}
		for _, t := range terms {
			if g.kinds[t.rank] == model.KindNumeric {
				q.NumTerm(ids[t.rank], t.num)
			} else {
				q.TextTerm(ids[t.rank], t.str)
			}
		}
		queries = append(queries, q)
	}
	return queries, qc.Warm
}

// Correctness batteries --------------------------------------------------

// MixConfig is the universe the correctness batteries draw their rows from —
// the differential oracle, the scan-counter golden test and the HTTP
// equivalence tests: the paper's generator narrowed to 24 attributes, so
// that a run of a few thousand tuples defines each of them many times and
// ends holding every list organization I–IV. Six numeric attributes sit at
// every fourth rank, which gives each of numValue's three value shapes two
// attributes; multi-string values and typos are more frequent than in the
// paper's statistics, to load Type II lists and the edit-distance refine.
func MixConfig(seed int64) Config {
	return Config{TextAttrs: 18, NumAttrs: 6, MeanAttrs: 6, MultiStrProb: 0.3, TypoProb: 0.1, Seed: seed}
}

// Term is one query term by attribute name.
type Term struct {
	Name   string
	Kind   model.Kind
	Num    float64 // Kind == KindNumeric
	Str    string  // Kind == KindText
	Weight float64 // explicit λ; 0 = the metric's weighting scheme
}

// NamedQuery is a top-k query by attribute names; its terms name distinct
// attributes.
type NamedQuery struct {
	K     int
	Terms []Term
}

// The mix's fixed rates, per term unless noted.
const (
	mixMaxK        = 12   // k uniform in [1, mixMaxK]
	mixMaxTerms    = 3    // terms per query uniform in [1, mixMaxTerms]
	mixTypoProb    = 0.5  // a sampled string is mistyped
	mixGhostProb   = 0.06 // the term moves to an attribute no tuple defines
	mixOutsideProb = 0.25 // a numeric value leaves the data's domain
	mixWeightProb  = 0.15 // the term carries an explicit weight in [0.5, 2.5)
)

// Ghost attribute names: no generated tuple defines them, and each has one
// kind, so registering them never conflicts.
const (
	ghostText = "ghost_text"
	ghostNum  = "ghost_num"
)

// MixQuery draws one query of the adversarial mix the correctness batteries
// run against tuples 0 … tuples-1: terms sampled as Queries samples them,
// then moved onto ghost attributes (all-ndf columns), pushed outside the
// numeric domain (the quantizers' clamped edge slices) or given explicit
// weights at the fixed rates above. Every random decision is drawn from rng,
// so a query stream replays from rng's seed.
func (g *Generator) MixQuery(rng *rand.Rand, tuples int) NamedQuery {
	q := NamedQuery{K: 1 + rng.Intn(mixMaxK)}
	var terms []drawnTerm
	// A handful of tuples may define fewer distinct attributes than asked for.
	for n := 1 + rng.Intn(mixMaxTerms); terms == nil; n-- {
		terms = g.drawTerms(rng, tuples, max(n, 1), mixTypoProb)
	}
	for _, d := range terms {
		t := Term{Name: g.AttrName(d.rank), Kind: g.kinds[d.rank], Num: d.num, Str: d.str}
		if rng.Float64() < mixGhostProb {
			t.Name = ghostText
			if t.Kind == model.KindNumeric {
				t.Name = ghostNum
			}
		}
		if t.Kind == model.KindNumeric && rng.Float64() < mixOutsideProb {
			t.Num = outside(rng, t.Num)
		}
		if rng.Float64() < mixWeightProb {
			t.Weight = 0.5 + 2*rng.Float64()
		}
		if !slices.ContainsFunc(q.Terms, func(o Term) bool { return o.Name == t.Name }) {
			q.Terms = append(q.Terms, t)
		}
	}
	return q
}

// outside moves a sampled numeric value out of the data's domain: below it
// (every generated value is ≥ 0) or a multiple above the value itself.
func outside(rng *rand.Rand, v float64) float64 {
	if rng.Intn(2) == 0 {
		return -1 - math.Floor(rng.Float64()*(v+1))
	}
	return math.Floor((v + 1) * (3 + 7*rng.Float64()))
}
