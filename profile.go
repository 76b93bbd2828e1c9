package iva

import (
	"fmt"
	"strings"
	"time"

	"github.com/sparsewide/iva/internal/core"
)

// WorkerProfile is one filter worker's share of a profiled query: how many
// stripes it claimed from the shared counter, the tuples it scanned, the
// candidates it fetched, and its busy wall time. A one-worker search reports
// a single entry covering every stripe.
type WorkerProfile = core.WorkerStats

// PhaseProfile decomposes one query's wall time into the paper's phases —
// filter (the synchronized tuple/vector-list scan), refine (random table
// fetches for surviving candidates), and the deterministic (dist, tid) top-k
// merge — plus the striped plan's work distribution.
// FilterTime+RefineTime+MergeTime equals the measured query wall clock.
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
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

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
		ph = &PhaseProfile{}
	}
	fmt.Fprintf(&b, "  Filter: %s  scanned=%d stripes=%d", fmtMS(ph.FilterTime), qs.Scanned, ph.StripesTotal)
	if ph.StripesSkipped > 0 {
		fmt.Fprintf(&b, " (skipped %d)", ph.StripesSkipped)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  Refine: %s  fetched=%d\n", fmtMS(ph.RefineTime), qs.TableAccesses)
	fmt.Fprintf(&b, "  Merge:  %s\n", fmtMS(ph.MergeTime))
	hitRatio := IOStats{CacheHits: qs.CacheHits, PhysReads: qs.PhysReads}.HitRate()
	fmt.Fprintf(&b, "  I/O: cache_hits=%d phys_reads=%d pool_hit_ratio=%.1f%% disk_cost=%.3fms",
		qs.CacheHits, qs.PhysReads, hitRatio*100, qs.DiskCostMS)
	if qs.DegradedSegments > 0 {
		fmt.Fprintf(&b, " degraded_segments=%d", qs.DegradedSegments)
	}
	b.WriteByte('\n')
	for i, w := range ph.Workers {
		fmt.Fprintf(&b, "  Worker %d: stripes=%d scanned=%d fetched=%d busy=%s\n", i, w.Stripes, w.Scanned, w.Fetched, fmtMS(w.Busy))
	}
	return b.String()
}
