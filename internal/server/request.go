package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/sparsewide/iva"
)

// Request-size and query-shape bounds. The decoder is the service's outermost
// trust boundary: everything beyond it (the query planner, the bit readers)
// assumes well-formed input, so every limit is enforced here, before any
// index work happens. FuzzSearchRequest holds this file to "malformed input
// never panics, never queries".
const (
	// maxBodyBytes bounds a /v1/search request body.
	maxBodyBytes = 1 << 20
	// maxK caps the requested top-k.
	maxK = 1000
	// maxTerms caps the number of query terms.
	maxTerms = 64
	// maxAttrLen matches the catalog's attribute-name limit.
	maxAttrLen = 255
	// maxTextLen matches model.Text's per-string limit.
	maxTextLen = 255
)

// SearchTerm is one term of a /v1/search request. Exactly one of Num and
// Text must be present — the pointer distinguishes "num": 0 from an absent
// field.
type SearchTerm struct {
	Attr string   `json:"attr"`
	Num  *float64 `json:"num,omitempty"`
	Text *string  `json:"text,omitempty"`
	// Weight is the optional explicit importance λ > 0 for this term,
	// overriding the store's weighting scheme; 0 or absent uses the scheme.
	Weight float64 `json:"weight,omitempty"`
}

// SearchRequest is the body of POST /v1/search.
type SearchRequest struct {
	K     int          `json:"k"`
	Terms []SearchTerm `json:"terms"`
	// TimeoutMS is the client's end-to-end deadline for the query in
	// milliseconds; 0 or absent selects the server's default. The server
	// clamps it to its configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DecodeSearchRequest reads and validates one search request from r,
// enforcing the body-size bound. Unknown fields and trailing data are
// rejected, so a request that decodes is exactly the documented shape.
func DecodeSearchRequest(r io.Reader) (*SearchRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req SearchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	// A second Decode must see EOF: anything else is trailing garbage (or a
	// body that overflowed the limit mid-value).
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, errors.New("trailing data after request object")
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (req *SearchRequest) validate() error {
	if req.K <= 0 {
		return fmt.Errorf("k must be positive, got %d", req.K)
	}
	if req.K > maxK {
		return fmt.Errorf("k %d exceeds the maximum %d", req.K, maxK)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	if len(req.Terms) == 0 {
		return errors.New("at least one term is required")
	}
	if len(req.Terms) > maxTerms {
		return fmt.Errorf("%d terms exceed the maximum %d", len(req.Terms), maxTerms)
	}
	seen := make(map[string]bool, len(req.Terms))
	for i, t := range req.Terms {
		if t.Attr == "" {
			return fmt.Errorf("term %d: attr is required", i)
		}
		if seen[t.Attr] {
			// The engine rejects duplicate query attributes; catching it here
			// turns a 500 into a 400 with the offending term named.
			return fmt.Errorf("term %d: duplicate attr %q", i, t.Attr)
		}
		seen[t.Attr] = true
		if len(t.Attr) > maxAttrLen {
			return fmt.Errorf("term %d: attr exceeds %d bytes", i, maxAttrLen)
		}
		switch {
		case t.Num != nil && t.Text != nil:
			return fmt.Errorf("term %d: num and text are mutually exclusive", i)
		case t.Num == nil && t.Text == nil:
			return fmt.Errorf("term %d: one of num or text is required", i)
		case t.Num != nil:
			if math.IsNaN(*t.Num) || math.IsInf(*t.Num, 0) {
				return fmt.Errorf("term %d: num must be finite", i)
			}
		case t.Text != nil:
			if *t.Text == "" {
				return fmt.Errorf("term %d: text must be non-empty", i)
			}
			if len(*t.Text) > maxTextLen {
				return fmt.Errorf("term %d: text exceeds %d bytes", i, maxTextLen)
			}
		}
		if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("term %d: weight must be a finite non-negative number", i)
		}
	}
	return nil
}

// Query converts a validated request into the engine's query form. The term
// order is preserved, so an HTTP request and the equivalent in-process
// NewQuery chain build identical plans.
func (req *SearchRequest) Query() *iva.Query {
	q := iva.NewQuery(req.K)
	for _, t := range req.Terms {
		switch {
		case t.Num != nil && t.Weight > 0:
			q.WhereNumWeighted(t.Attr, *t.Num, t.Weight)
		case t.Num != nil:
			q.WhereNum(t.Attr, *t.Num)
		case t.Weight > 0:
			q.WhereTextWeighted(t.Attr, *t.Text, t.Weight)
		default:
			q.WhereText(t.Attr, *t.Text)
		}
	}
	return q
}

// SearchResult is one element of a search response, mirroring iva.Result.
type SearchResult struct {
	TID  iva.TID `json:"tid"`
	Dist float64 `json:"dist"`
}

// SearchStats is the per-query work summary included in every search
// response (the network rendering of iva.QueryStats).
type SearchStats struct {
	Scanned          int64 `json:"scanned"`
	TableAccesses    int64 `json:"table_accesses"`
	CacheHits        int64 `json:"cache_hits"`
	PhysReads        int64 `json:"phys_reads"`
	Workers          int   `json:"workers"`
	DegradedSegments int   `json:"degraded_segments,omitempty"`
}

// SearchResponse is the body of a successful /v1/search answer.
type SearchResponse struct {
	TraceID string         `json:"trace_id,omitempty"`
	Results []SearchResult `json:"results"`
	Stats   SearchStats    `json:"stats"`
}

// Results converts engine results into their wire form. Kept in one place so
// the equivalence battery can render in-process answers through the exact
// encoder the server uses and compare bytes.
func Results(res []iva.Result) []SearchResult {
	out := make([]SearchResult, len(res))
	for i, r := range res {
		out[i] = SearchResult{TID: r.TID, Dist: r.Dist}
	}
	return out
}
