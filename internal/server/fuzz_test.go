package server

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSearchRequest holds the request decoder — the service's outermost
// trust boundary — to its contract: arbitrary bytes never panic, and
// anything that decodes successfully is a fully validated request that
// builds a well-formed engine query. (The complementary handler-level
// property, "a rejected body never reaches the backend", is
// TestBadRequestNeverQueries.)
func FuzzSearchRequest(f *testing.F) {
	seeds := []string{
		`{"k":5,"terms":[{"attr":"price","num":120}]}`,
		`{"k":3,"terms":[{"attr":"type","text":"camera","weight":1.5}],"timeout_ms":250}`,
		`{"k":12,"terms":[{"attr":"price","num":-3.25},{"attr":"city","text":"berlin"}]}`,
		`{"k":0,"terms":[{"attr":"a","num":1}]}`,
		`{"k":3,"terms":[]}`,
		`{"k":3,"terms":[{"attr":"","num":1}]}`,
		`{"k":3,"terms":[{"attr":"a"}]}`,
		`{"k":3,"terms":[{"attr":"a","num":1,"text":"b"}]}`,
		`{"k":3,"terms":[{"attr":"a","num":1},{"attr":"a","num":2}]}`,
		`{"k":3,"terms":[{"attr":"a","text":""}]}`,
		`{"k":3,"terms":[{"attr":"a","num":1,"weight":-1}]}`,
		`{"k":3,"terms":[{"attr":"a","num":1e999}]}`,
		`{"k":2147483647,"terms":[{"attr":"a","num":1}]}`,
		`{"k":3,"timeout_ms":-5,"terms":[{"attr":"a","num":1}]}`,
		`{"k":3,"terms":[{"attr":"a","num":1}],"extra":true}`,
		`{"k":3,"terms":[{"attr":"a","num":1}]} trailing`,
		`{"k":3,"terms":[{"attr":"` + strings.Repeat("x", 300) + `","num":1}]}`,
		`{"k":3,"terms":[{"attr":"a","text":"` + strings.Repeat("y", 300) + `"}]}`,
		`[1,2,3]`,
		`null`,
		`{}`,
		``,
		`{"k":`,
		"{\"k\":3,\"terms\":[{\"attr\":\"\xff\xfe\",\"num\":1}]}",
		strings.Repeat(`{"terms":`, 200),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSearchRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatalf("error %v returned alongside a request", err)
			}
			return
		}
		// Decoded ⇒ validated: the request must survive re-validation under
		// the same bounds and convert to a query whose shape
		// matches — this is what the handler hands to SearchContext.
		if err := req.validate(); err != nil {
			t.Fatalf("decoded request fails re-validation: %v\n  input: %q", err, data)
		}
		q := req.Query()
		if q == nil {
			t.Fatalf("validated request produced a nil query: %q", data)
		}
		if q.K() != req.K || q.Len() != len(req.Terms) {
			t.Fatalf("query shape (k=%d, %d terms) diverges from request (k=%d, %d terms): %q",
				q.K(), q.Len(), req.K, len(req.Terms), data)
		}
	})
}
