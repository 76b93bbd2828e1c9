package bench

import (
	"fmt"
	"math/rand"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/vector"
)

// ExpSizes reports index-size behavior across α, the quantity behind the
// §V-A prose range ("82.7 MB to 116.7 MB") and the observation that some
// iVA-files are smaller than the SII file thanks to list-type selection.
func ExpSizes(e *Env) (Result, error) {
	r := Result{
		Name:   "sizes",
		Title:  "Index and table file sizes (see §V-A prose)",
		Header: []string{"file", "MB"},
	}
	r.Rows = append(r.Rows,
		[]string{"table (interpreted schema)", f1(float64(e.Tbl.Bytes()) / 1e6)},
		[]string{"SII", f1(float64(e.SII.SizeBytes()) / 1e6)},
	)
	for _, a := range alphaSweep {
		ix, err := e.BuildIVA(core.Options{Alpha: a})
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("iVA (alpha=%s)", pct(a)), f1(float64(ix.SizeBytes()) / 1e6),
		})
	}
	r.Notes = append(r.Notes,
		"Paper: iVA sizes range around the SII size; small alphas undercut it.")
	return r, nil
}

// ExpAblateListTypes quantifies §III-D's multi-type list selection: the
// automatic choice vs. forcing Type I everywhere.
func ExpAblateListTypes(e *Env) (Result, error) {
	r := Result{
		Name:   "ablate-listtypes",
		Title:  "Ablation: automatic list-type selection vs. Type I everywhere",
		Header: []string{"variant", "index MB", "query model ms"},
	}
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return r, err
	}
	qs, warm := e.Queries(3, 10, queryCount, 21)
	auto, err := measure(ivaOn(e.IVA), qs, warm, 1, m)
	if err != nil {
		return r, err
	}
	autoMB := float64(e.IVA.SizeBytes()) / 1e6
	counts := map[vector.ListType]int{}
	for id := 0; id < e.Tbl.Catalog().NumAttrs(); id++ {
		if lt, ok := e.IVA.ListType(model.AttrID(id)); ok {
			counts[lt]++
		}
	}

	typeI, err := e.BuildIVA(core.Options{ForceType: vector.TypeI})
	if err != nil {
		return r, err
	}
	forced, err := measure(ivaOn(typeI), qs, warm, 1, m)
	if err != nil {
		return r, err
	}
	forcedMB := float64(typeI.SizeBytes()) / 1e6

	r.Rows = append(r.Rows,
		[]string{"automatic (I/II/III/IV)", f1(autoMB), f1(auto.TotalModelMS)},
		[]string{"forced Type I", f1(forcedMB), f1(forced.TotalModelMS)},
	)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"Automatic selection chose: I=%d II=%d III=%d IV=%d over %d attributes.",
		counts[vector.TypeI], counts[vector.TypeII], counts[vector.TypeIII], counts[vector.TypeIV],
		e.Tbl.Catalog().NumAttrs()))
	return r, nil
}

// ExpAblateDomains quantifies §III-C's relative-domain encoding against the
// original VA-file absolute-domain scheme.
func ExpAblateDomains(e *Env) (Result, error) {
	r := Result{
		Name:   "ablate-domains",
		Title:  "Ablation: relative vs. absolute numeric domains (§III-C)",
		Header: []string{"variant", "table accesses/query", "query model ms"},
	}
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return r, err
	}
	// Numeric-only queries isolate the quantizer's filtering power.
	qs, warm := numericQueries(e, 2, 10, queryCount, 22)
	rel, err := measure(ivaOn(e.IVA), qs, warm, 1, m)
	if err != nil {
		return r, err
	}
	absIx, err := e.BuildIVA(core.Options{AbsoluteDomains: true})
	if err != nil {
		return r, err
	}
	abs, err := measure(ivaOn(absIx), qs, warm, 1, m)
	if err != nil {
		return r, err
	}
	r.Rows = append(r.Rows,
		[]string{"relative domain (paper)", f1(rel.MeanTableAccesses), f1(rel.TotalModelMS)},
		[]string{"absolute domain (VA-file)", f1(abs.MeanTableAccesses), f1(abs.TotalModelMS)},
	)
	r.Notes = append(r.Notes,
		"Paper's claim: shorter relative-domain codes reach the precision absolute-domain codes cannot; expect far fewer accesses for the relative variant.")
	return r, nil
}

// numericQueries builds queries over numeric attributes only.
func numericQueries(e *Env, values, k, count, seed int) ([]*model.Query, int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var numeric []int
	for r := 0; r < e.Gen.NumAttrsTotal(); r++ {
		if e.Gen.AttrKind(r) == model.KindNumeric {
			numeric = append(numeric, r)
		}
	}
	var qs []*model.Query
	for len(qs) < count {
		ti := rng.Intn(e.Cfg.Tuples)
		vals := e.Gen.Values(ti)
		q := &model.Query{K: k}
		for _, r := range numeric {
			if v, ok := vals[r]; ok && v.Kind == model.KindNumeric {
				q.NumTerm(e.IDs[r], v.Num)
				if len(q.Terms) >= values {
					break
				}
			}
		}
		// Top up with popular numeric attributes when the tuple is short.
		for _, r := range numeric {
			if len(q.Terms) >= values {
				break
			}
			dup := false
			for _, t := range q.Terms {
				if t.Attr == e.IDs[r] {
					dup = true
				}
			}
			if !dup {
				q.NumTerm(e.IDs[r], float64(rng.Intn(1000)))
			}
		}
		if len(q.Terms) >= 1 {
			qs = append(qs, q)
		}
	}
	return qs, min(warmCount, len(qs)/2)
}

// ExpAblatePlan reproduces the §IV-A argument for the parallel plan: the
// classic VA-file two-phase (sequential) plan needs per-tuple upper bounds,
// which string signatures cannot provide, so on text queries its candidate
// set degenerates to the whole table, while Algorithm 1 keeps fetching
// bounded. Numeric-only queries, where slice codes do bound from above, are
// shown for contrast.
func ExpAblatePlan(e *Env) (Result, error) {
	r := Result{
		Name:  "ablate-plan",
		Title: "Ablation: VA-file sequential plan vs. Algorithm 1's parallel plan (candidates per query)",
		Header: []string{"workload", "scanned", "sequential candidates",
			"parallel fetches"},
	}
	m, err := e.Metric("EQU", "L2")
	if err != nil {
		return r, err
	}
	run := func(label string, qs []*model.Query, warm int) error {
		var scanned, seq, par float64
		n := float64(len(qs) - warm)
		for i, q := range qs {
			ex, err := e.IVA.ExplainSearch(q, m)
			if err != nil {
				return err
			}
			if i < warm {
				continue
			}
			scanned += float64(ex.Scanned)
			seq += float64(ex.SequentialCandidates)
			par += float64(ex.Fetched)
		}
		r.Rows = append(r.Rows, []string{label, f1(scanned / n), f1(seq / n), f1(par / n)})
		return nil
	}
	// Standard mixed workload: queries contain text terms.
	qs, warm := e.Queries(3, 10, 20, 31)
	if err := run("mixed text+numeric", qs, warm); err != nil {
		return r, err
	}
	nqs, nwarm := numericQueries(e, 2, 10, 20, 32)
	if err := run("numeric only", nqs, nwarm); err != nil {
		return r, err
	}
	r.Notes = append(r.Notes,
		"Paper §IV-A: a limited-length vector cannot upper-bound unlimited-length strings, so the sequential plan's candidate set is the whole table on text queries; the parallel plan interleaves refinement and stays bounded.")
	return r, nil
}

// ExpAblateSignature compares, at each α of the sweep and so at equal cH
// bits, the paper's nG-signature (ngsig.go) with the engine's bucketed
// character histogram on the same string pairs: the mean exact edit
// distance, each bound's mean, and how many pairs either bound exceeds (a
// lower bound never does). The signature's columns keep the Appendix check:
// Eq. 5's expected relative error ê against the measured relative shortfall
// from est' (Eq. 1). Pairs are unrelated 13–21-byte strings: vocabulary
// words of the dataset generator (whose letters the benchmark's generator
// draws alike), or words over uniform letters or English letter frequencies
// (which a frequency bound fits worst).
func ExpAblateSignature(e *Env) (Result, error) {
	r := Result{
		Name:   "ablate-signature",
		Title:  "Text bound at equal bits: nG-signature (Eq. 3) vs character histogram",
		Header: []string{"pairs", "alpha", "predicted e", "measured e", "ed", "signature", "histogram", "above ed"},
	}
	rng := rand.New(rand.NewSource(23))
	vocab := func() string { return e.Gen.VocabWord(rng.Intn(e.Gen.NumAttrsTotal()), rng.Intn(64)) }
	english := englishLetter(rng)
	samplers := []struct {
		name string
		draw func() (string, string)
	}{
		{"generator", func() (string, string) { return vocab(), vocab() }},
		{"uniform", func() (string, string) {
			letter := func() byte { return byte('a' + rng.Intn(26)) }
			return sampleWords(rng, letter), sampleWords(rng, letter)
		}},
		{"english", func() (string, string) { return sampleWords(rng, english), sampleWords(rng, english) }},
	}
	const pairs = 2000
	for _, smp := range samplers {
		var sq, sd [pairs]string
		var ed [pairs]float64
		var edSum float64
		for i := range sq {
			sq[i], sd[i] = smp.draw()
			ed[i] = float64(gram.EditDistance(sq[i], sd[i]))
			edSum += ed[i]
		}
		for _, a := range alphaSweep {
			codec, err := signature.NewCodec(gramN, a)
			if err != nil {
				return r, err
			}
			var measured, predicted, sigSum, histSum float64
			var count, above int
			for i := range sq {
				est := ngEst(codec, sq[i], ngEncode(codec, sd[i]), len(sd[i]))
				hist := codec.NewQueryString(sq[i]).Est(codec.Encode(sd[i]))
				sigSum, histSum = sigSum+est, histSum+hist
				if est > ed[i] || hist > ed[i] {
					above++
				}
				if estPrime := gram.EstPrime(sq[i], sd[i], gramN); estPrime > 0 {
					l, t := ngParams(codec, len(sd[i]))
					measured += (estPrime - est) / estPrime
					predicted += expectedError(len(sd[i])+gramN-1, l, t)
					count++
				}
			}
			c := float64(max(count, 1))
			r.Rows = append(r.Rows, []string{smp.name, pct(a), f2(predicted / c), f2(measured / c),
				f2(edSum / pairs), f2(sigSum / pairs), f2(histSum / pairs), fmt.Sprint(above)})
		}
	}
	r.Notes = append(r.Notes,
		"Both errors must fall as alpha (hence l) grows; the prediction should track the measurement's order of magnitude.",
		"The histogram is the engine's element; the signature is the paper's at the same width. \"above ed\" must be 0.")
	return r, nil
}

// sampleWords returns 13 to 21 bytes of space-separated words of 4 to 8
// letters, the shape of the benchmark's vocabulary, each letter drawn by letter.
func sampleWords(rng *rand.Rand, letter func() byte) string {
	b := make([]byte, 0, 21)
	for target := 13 + rng.Intn(9); len(b) < target; {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		for wl := min(4+rng.Intn(5), target-len(b)); wl > 0; wl-- {
			b = append(b, letter())
		}
	}
	return string(b)
}

// englishLetter returns a sampler of a–z at their relative frequencies in
// English text, per mille (rounded from the usual corpus tables).
func englishLetter(rng *rand.Rand) func() byte {
	freq := [26]int{82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60, 63, 91, 28, 10, 24, 2, 20, 1}
	return func() byte {
		i, x := 0, rng.Intn(1003) // Σ freq
		for ; x >= freq[i]; i++ {
			x -= freq[i]
		}
		return byte('a' + i)
	}
}
