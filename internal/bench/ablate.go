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
	auto, err := measure(ivaOn(e.IVA), qs, warm, m)
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
	forced, err := measure(ivaOn(typeI), qs, warm, m)
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
	rel, err := measure(ivaOn(e.IVA), qs, warm, m)
	if err != nil {
		return r, err
	}
	absIx, err := e.BuildIVA(core.Options{AbsoluteDomains: true})
	if err != nil {
		return r, err
	}
	abs, err := measure(ivaOn(absIx), qs, warm, m)
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
	warm := warmCount
	if warm > len(qs)/2 {
		warm = len(qs) / 2
	}
	return qs, warm
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
		n := 0
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
			n++
		}
		r.Rows = append(r.Rows, []string{
			label, f1(scanned / float64(n)), f1(seq / float64(n)), f1(par / float64(n)),
		})
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

// ExpAblateSignature measures the signature's expected relative error ê
// (Eq. 5) against the observed error over sampled vocabulary strings, for
// the α sweep — the empirical check of the Appendix analysis.
func ExpAblateSignature(e *Env) (Result, error) {
	r := Result{
		Name:   "ablate-signature",
		Title:  "Signature error: predicted ê (Eq. 5) vs. measured mean relative error",
		Header: []string{"alpha", "predicted e", "measured e"},
	}
	rng := rand.New(rand.NewSource(23))
	// Sample data/query string pairs from the generator's vocabulary.
	type pair struct{ sq, sd string }
	var pairs []pair
	for i := 0; i < 400; i++ {
		rank := rng.Intn(e.Gen.NumAttrsTotal())
		if e.Gen.AttrKind(rank) != model.KindText {
			continue
		}
		sd := e.Gen.VocabWord(rank, rng.Intn(64))
		sq := e.Gen.VocabWord(rank, rng.Intn(64))
		pairs = append(pairs, pair{sq, sd})
	}
	for _, a := range alphaSweep {
		codec, err := signature.NewCodec(gramN, a)
		if err != nil {
			return r, err
		}
		var measured, predicted float64
		var count int
		for _, p := range pairs {
			estPrime := gram.EstPrime(p.sq, p.sd, gramN)
			if estPrime <= 0 {
				continue
			}
			sig := codec.Encode(p.sd)
			est := codec.NewQueryString(p.sq).Est(sig)
			measured += (estPrime - est) / estPrime
			mGrams := len(p.sd) + gramN - 1
			l := codec.SigBits(len(p.sd))
			t := codec.OptimalT(mGrams, l)
			predicted += signature.ExpectedError(mGrams, l, t)
			count++
		}
		if count == 0 {
			continue
		}
		r.Rows = append(r.Rows, []string{
			pct(a), f2(predicted / float64(count)), f2(measured / float64(count)),
		})
	}
	r.Notes = append(r.Notes,
		"Both errors must fall as alpha (hence l) grows; the prediction should track the measurement's order of magnitude.")
	return r, nil
}
