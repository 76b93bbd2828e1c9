// Package iva is a Go implementation of the iVA-file (inverted vector
// approximation file) of Li, Hui, Li and Gao, "iVA-File: Efficiently
// Indexing Sparse Wide Tables in Community Systems" (ICDE 2009): a
// content-conscious, scan-efficient index for top-k structured similarity
// search over sparse wide tables mixing short text and numeric attributes.
//
// A Store bundles the sparse wide table (row-wise interpreted-schema
// storage), its iVA-file index, and the maintenance policy of §IV-B
// (tail-append inserts and deletes, threshold-triggered rebuilds).
// Attributes are identified by name and registered on first use, matching
// the free-and-easy data publishing model of community web systems:
//
//	st, _ := iva.Create("", iva.Options{})           // in-memory store
//	tid, _ := st.Insert(iva.Row{
//	    "Type":    iva.Strings("Digital Camera"),
//	    "Company": iva.Strings("Canon"),
//	    "Price":   iva.Num(230),
//	})
//	res, _, _ := st.Search(iva.NewQuery(10).
//	    WhereText("Type", "Digital Camera").
//	    WhereText("Company", "Cannon"). // typo-tolerant (edit distance)
//	    WhereNum("Price", 200))
//
// Results are exact for any monotone similarity metric (Property 3.1): the
// index filters with provable lower bounds (character histograms for strings,
// relative-domain codes for numbers), so no false negatives occur.
package iva

import (
	"fmt"
	"strings"

	"github.com/sparsewide/iva/internal/model"
)

// Kind is the type of an attribute.
type Kind int

// Attribute kinds.
const (
	Numeric Kind = iota
	Text
)

func (k Kind) String() string {
	if k == Numeric {
		return "numeric"
	}
	return "text"
}

func (k Kind) internal() model.Kind {
	if k == Numeric {
		return model.KindNumeric
	}
	return model.KindText
}

func kindFrom(k model.Kind) Kind {
	if k == model.KindNumeric {
		return Numeric
	}
	return Text
}

// Value is a defined cell value: one number or a non-empty set of short
// strings (a text cell may hold several strings, e.g. Industry =
// {"Computer", "Software"}).
type Value struct {
	v model.Value
}

// Num returns a numeric value.
func Num(f float64) Value { return Value{model.Num(f)} }

// Strings returns a text value holding the given strings. Each string must
// be non-empty and at most 255 bytes.
func Strings(ss ...string) Value { return Value{model.Text(ss...)} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return kindFrom(v.v.Kind) }

// Float returns the numeric payload (0 for text values).
func (v Value) Float() float64 { return v.v.Num }

// Texts returns the string payload (nil for numeric values).
func (v Value) Texts() []string { return v.v.Strs }

// String implements fmt.Stringer.
func (v Value) String() string { return v.v.String() }

// Row maps attribute names to defined values; attributes absent from the
// map are ndf, the sparse table's undefined marker.
type Row map[string]Value

// TID identifies a stored tuple. Updated tuples receive fresh ids (§IV-B).
type TID = uint32

// Result is one element of a top-k answer, ordered by increasing distance.
type Result struct {
	TID  TID
	Dist float64
}

// Query is a top-k structured similarity query: a handful of expected
// values on named attributes. Build one with NewQuery and the Where
// methods.
type Query struct {
	k     int
	terms []queryTerm
	err   error
}

type queryTerm struct {
	attr   string
	kind   Kind
	num    float64
	str    string
	weight float64
}

// NewQuery starts a query returning the k most similar tuples.
func NewQuery(k int) *Query { return &Query{k: k} }

// WhereText adds an expected string on a text attribute; tuples are ranked
// by the smallest edit distance of their strings to s.
func (q *Query) WhereText(attr, s string) *Query {
	return q.add(queryTerm{attr: attr, kind: Text, str: s})
}

// WhereNum adds an expected number on a numeric attribute; tuples are
// ranked by |value − v|.
func (q *Query) WhereNum(attr string, v float64) *Query {
	return q.add(queryTerm{attr: attr, kind: Numeric, num: v})
}

// WhereTextWeighted is WhereText with an explicit importance weight λ > 0,
// overriding the store's weighting scheme for this term.
func (q *Query) WhereTextWeighted(attr, s string, weight float64) *Query {
	return q.add(queryTerm{attr: attr, kind: Text, str: s, weight: weight})
}

// WhereNumWeighted is WhereNum with an explicit importance weight.
func (q *Query) WhereNumWeighted(attr string, v float64, weight float64) *Query {
	return q.add(queryTerm{attr: attr, kind: Numeric, num: v, weight: weight})
}

func (q *Query) add(t queryTerm) *Query {
	if t.weight < 0 {
		q.err = fmt.Errorf("iva: negative weight on %q", t.attr)
	}
	q.terms = append(q.terms, t)
	return q
}

// describe renders the query for the slow-query log and traces.
func (q *Query) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d", q.k)
	for _, t := range q.terms {
		if t.kind == Numeric {
			fmt.Fprintf(&b, " %s=%g", t.attr, t.num)
		} else {
			fmt.Fprintf(&b, " %s=%q", t.attr, t.str)
		}
	}
	return b.String()
}

// K returns the query's k.
func (q *Query) K() int { return q.k }

// Len returns the number of defined values.
func (q *Query) Len() int { return len(q.terms) }
