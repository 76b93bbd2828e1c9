package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// span is one interval recorded at a layer boundary. Spans of one operation
// share a trace id; parent 0 marks the operation's root. The benchmark's own
// code records them around its calls into each layer; the phase spans below
// store.search are laid out from the durations QueryStats.Phase returns.
type span struct {
	TraceID  uint64           `json:"trace_id"`
	SpanID   uint64           `json:"span_id"`
	ParentID uint64           `json:"parent_id"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

// add records a span and returns its id.
func (t *tracer) add(traceID, parent uint64, name string, start, end int64, counts map[string]int64) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{TraceID: traceID, SpanID: id, ParentID: parent, Name: name, StartNS: start, EndNS: end, Counts: counts})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], i)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.SpanID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.SpanID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// coverage is the share of the root spans' time that the layers below them
// account for: Σ self times of non-root spans ÷ Σ root durations. What is
// left is time the root spent outside any recorded layer.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var below, roots int64
	for _, s := range spans {
		if s.ParentID == 0 {
			roots += s.EndNS - s.StartNS
		} else {
			below += self[s.SpanID]
		}
	}
	return ratio(float64(below), float64(roots))
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.SpanID]
	}
	return out
}

// selfShares renders where the traced operations' time went: each span
// name's self time as a share of the root spans' time, largest first.
func selfShares(spans []span) string {
	byName := selfByName(spans)
	var roots int64
	for _, s := range spans {
		if s.ParentID == 0 {
			roots += s.EndNS - s.StartNS
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", n, 100*ratio(float64(byName[n]), float64(roots)))
	}
	return b.String()
}
