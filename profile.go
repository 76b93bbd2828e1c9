package iva

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/obs"
)

// WorkerProfile is one filter worker's share of a profiled query: how many
// stripes it claimed from the shared counter, the tuples it scanned, the
// candidates it fetched, and its busy wall time. A one-worker search reports
// a single entry covering every stripe.
type WorkerProfile = core.WorkerStats

// PhaseProfile decomposes one query's wall time into the paper's phases —
// filter (the synchronized tuple/vector-list scan), refine (random table
// fetches for surviving candidates), and the deterministic (dist, tid) top-k
// merge — plus the striped plan's work distribution and the buffer pool's
// contribution. FilterTime+RefineTime+MergeTime equals the measured query
// wall clock.
type PhaseProfile struct {
	FilterTime time.Duration
	RefineTime time.Duration
	MergeTime  time.Duration
	// StripesTotal is the number of stripes the tuple list was cut into, at
	// every worker count (1 when the index has no usable checkpoints);
	// StripesSkipped counts stripes never claimed because the search
	// aborted early.
	StripesTotal   int
	StripesSkipped int
	// StripesZonePruned is never set (always 0): stripe zone maps are gone,
	// and the field stays only because the frozen benchmark/layers.go reads
	// it. The [benchmark] PR that retires core.zone_pruned_share removes it.
	StripesZonePruned int
	// Workers holds each filter worker's share.
	Workers []WorkerProfile
	// PoolHitRatio is the fraction of the query's page requests served by
	// the buffer pool.
	PoolHitRatio float64
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phaseBreakdown denormalizes a query's stats into the slow-query log's
// per-entry phase summary.
func phaseBreakdown(qs QueryStats) *obs.PhaseBreakdown {
	pb := &obs.PhaseBreakdown{
		FilterMS: durMS(qs.FilterTime),
		RefineMS: durMS(qs.RefineTime),
		Scanned:  qs.Scanned,
		Fetched:  qs.TableAccesses,
		Workers:  qs.Workers,
		Degraded: qs.DegradedSegments,
	}
	if qs.Phase != nil {
		pb.MergeMS = durMS(qs.Phase.MergeTime)
	}
	return pb
}

// Render formats the stats of a finished search in an EXPLAIN ANALYZE style:
// one header line, one line per phase, the I/O summary, and one line per
// filter worker. q is the query that ran, results the number of answers it
// returned and elapsed the caller's wall clock around the call.
func (qs QueryStats) Render(q *Query, results int, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search %s\n", q.describe())
	fmt.Fprintf(&b, "  time=%s results=%d workers=%d", fmtMS(elapsed), results, qs.Workers)
	if qs.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", qs.TraceID)
	}
	b.WriteByte('\n')
	ph := qs.Phase
	if ph == nil { // a failed search's partial stats carry no profile
		ph = &PhaseProfile{FilterTime: qs.FilterTime, RefineTime: qs.RefineTime}
	}
	fmt.Fprintf(&b, "  Filter: %s  scanned=%d stripes=%d", fmtMS(ph.FilterTime), qs.Scanned, ph.StripesTotal)
	if ph.StripesSkipped > 0 {
		fmt.Fprintf(&b, " (skipped %d)", ph.StripesSkipped)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  Refine: %s  fetched=%d\n", fmtMS(ph.RefineTime), qs.TableAccesses)
	fmt.Fprintf(&b, "  Merge:  %s\n", fmtMS(ph.MergeTime))
	fmt.Fprintf(&b, "  I/O: cache_hits=%d phys_reads=%d pool_hit_ratio=%.1f%% disk_cost=%.3fms",
		qs.CacheHits, qs.PhysReads, ph.PoolHitRatio*100, qs.DiskCostMS)
	if qs.DegradedSegments > 0 {
		fmt.Fprintf(&b, " degraded_segments=%d", qs.DegradedSegments)
	}
	b.WriteByte('\n')
	for i, w := range ph.Workers {
		fmt.Fprintf(&b, "  Worker %d: stripes=%d scanned=%d fetched=%d busy=%s\n", i, w.Stripes, w.Scanned, w.Fetched, fmtMS(w.Busy))
	}
	return b.String()
}

// WriteTraces serializes the store's sampled trace ring and the latency
// histogram's bucket exemplars as one JSON object:
// {"total", "traces": [{"time","trace"}...], "exemplars": [...]}. Traces are
// newest first; each exemplar links a latency bucket to the trace id of the
// most recent query that landed in it (joinable against "traces" and the
// slow-query log).
func (s *Store) WriteTraces(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(`{"total":`)
	b.WriteString(strconv.FormatInt(s.ring.Total(), 10))
	b.WriteString(`,"traces":`)
	var tb bytes.Buffer
	if err := s.ring.WriteJSON(&tb); err != nil {
		return err
	}
	b.Write(bytes.TrimSpace(tb.Bytes()))
	b.WriteString(`,"exemplars":[`)
	h := s.om.queryDur
	bounds := h.Bounds()
	first := true
	for i, e := range h.Exemplars() {
		if e == nil {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		b.WriteString(`{"le":`)
		b.WriteString(strconv.Quote(le))
		b.WriteString(`,"value":`)
		b.WriteString(strconv.FormatFloat(e.Value, 'g', -1, 64))
		b.WriteString(`,"trace_id":`)
		b.WriteString(strconv.Quote(e.TraceID))
		b.WriteString(`,"time":`)
		b.WriteString(strconv.Quote(e.Time.Format(time.RFC3339Nano)))
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// FindTrace returns the retained trace with the given 16-hex-digit id, or
// nil; the lookup behind /debug/trace?id=.
func (s *Store) FindTrace(traceID string) *obs.Span { return s.ring.Find(traceID) }
