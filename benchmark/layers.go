package main

import (
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"github.com/sparsewide/iva"
)

// spansOf turns the records of a traced pass into spans:
//
//	client.op → server.request (serve-closed) → store.<kind> →
//	    core.filter, core.refine, core.merge (searches) | store.rebuild (writes)
//
// client.op, server.request and store.<kind> are boundaries the benchmark
// observed; the three phase spans are laid out back to back from the start
// of store.search with the durations QueryStats.Phase returned, so what
// remains of store.search is its self time. A rebuild is attributed to the
// write call during which StoreStats.Rebuilds advanced, whole.
func spansOf(t *tracer, recs []opRec, epoch time.Time) {
	ns := func(x time.Time) int64 { return x.Sub(epoch).Nanoseconds() }
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		id := uint64(len(t.spans) + 1)
		root := t.add(id, 0, "client.op", ns(r.start), ns(r.end), map[string]int64{"results": int64(r.results)})
		parent := root
		if !r.hStart.IsZero() {
			parent = t.add(id, parent, "server.request", ns(r.hStart), ns(r.hEnd), map[string]int64{"response_bytes": int64(r.respBytes)})
		}
		if r.sStart.IsZero() {
			continue
		}
		counts := map[string]int64{}
		if r.kind == opSearch {
			counts["scanned"] = r.qs.Scanned
			counts["table_accesses"] = r.qs.TableAccesses
			counts["cache_hits"] = r.qs.CacheHits
			counts["phys_reads"] = r.qs.PhysReads
		}
		st := t.add(id, parent, "store."+r.kind.String(), ns(r.sStart), ns(r.sEnd), counts)
		if p := r.qs.Phase; r.kind == opSearch && p != nil {
			at := ns(r.sStart)
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"core.filter", p.FilterTime}, {"core.refine", p.RefineTime}, {"core.merge", p.MergeTime}} {
				t.add(id, st, ph.name, at, at+ph.d.Nanoseconds(), nil)
				at += ph.d.Nanoseconds()
			}
		}
		if r.rebuilds > 0 {
			t.add(id, st, "store.rebuild", ns(r.sStart), ns(r.sEnd), map[string]int64{"rebuilds": r.rebuilds})
		}
	}
}

// searchLayers aggregates the QueryStats of the traced searches into the
// work-count and phase-time metrics.
func searchLayers(out *metrics, recs []opRec) {
	var n, hits, phys, fetches, scanned, scannedTerms, results float64
	var filter, refine, merge, self, busy, busyCap time.Duration
	var stripes, pruned float64
	var maxMS float64
	for i := range recs {
		r := &recs[i]
		if r.kind != opSearch || r.err != nil || r.qs.Phase == nil {
			continue
		}
		n++
		p := r.qs.Phase
		hits += float64(r.qs.CacheHits)
		phys += float64(r.qs.PhysReads)
		fetches += float64(r.qs.TableAccesses)
		scanned += float64(r.qs.Scanned)
		scannedTerms += float64(r.qs.Scanned) * queryTerms
		results += float64(r.results)
		filter += p.FilterTime
		refine += p.RefineTime
		merge += p.MergeTime
		call := r.sEnd.Sub(r.sStart)
		self += call - p.FilterTime - p.RefineTime - p.MergeTime
		for _, w := range p.Workers {
			busy += w.Busy
		}
		// A worker's busy time covers its filtering and its refine fetches.
		busyCap += time.Duration(len(p.Workers)) * (p.FilterTime + p.RefineTime)
		stripes += float64(p.StripesTotal)
		pruned += float64(p.StripesZonePruned)
		if v := ms(call); v > maxMS {
			maxMS = v
		}
	}
	out.set("storage.hit_rate", ratio(hits, hits+phys))
	out.set("storage.pages_per_query", ratio(hits+phys, n))
	out.set("storage.phys_reads_per_query", ratio(phys, n))
	out.set("table.accesses_per_query", ratio(fetches, n))
	out.set("core.filter_ms_per_query", ratio(ms(filter), n))
	out.set("core.refine_ms_per_query", ratio(ms(refine), n))
	out.set("core.merge_ms_per_query", ratio(ms(merge), n))
	out.set("core.filter_ns_per_tuple_term", ratio(float64(filter.Nanoseconds()), scannedTerms))
	out.set("core.refine_us_per_fetch", ratio(ms(refine)*1e3, fetches))
	out.set("core.scanned_per_query", ratio(scanned, n))
	out.set("core.fetches_per_result", ratio(fetches, results))
	out.set("core.zone_pruned_share", ratio(pruned, stripes))
	out.set("core.worker_busy_share", ratio(float64(busy), float64(busyCap)))
	out.set("store.search_self_us", ratio(ms(self)*1e3, n))
	out.set("store.search_ms_max", maxMS)
}

// filterBusyNS is the worker time the traced searches spent filtering: Σ
// worker busy time, which covers filter and refine, times the filter's share
// of the two (the split the engine itself applies to the wall clock). The
// filter model is compared with it, CPU time against CPU time.
func filterBusyNS(recs []opRec) float64 {
	total := 0.0
	for i := range recs {
		if p := recs[i].qs.Phase; recs[i].kind == opSearch && recs[i].err == nil && p != nil {
			var busy time.Duration
			for _, w := range p.Workers {
				busy += w.Busy
			}
			total += float64(busy.Nanoseconds()) * ratio(float64(p.FilterTime), float64(p.FilterTime+p.RefineTime))
		}
	}
	return total
}

// writeLayers aggregates the write side of a traced churn cycle.
func writeLayers(out *metrics, recs []opRec) {
	out.set("store.insert_ms_p50", median(latenciesMS(recs, opInsert)))
	out.set("store.delete_ms_p50", median(latenciesMS(recs, opDelete)))
	out.set("store.update_ms_p50", median(latenciesMS(recs, opUpdate)))
	out.set("store.sync_ms_p50", median(latenciesMS(recs, opSync)))
	writes := latenciesMS(recs, opInsert, opDelete, opUpdate)
	out.set("store.write_ms_p50", median(writes))
	// Time inside write and Sync calls, rebuild stalls included.
	out.set("store.writes_per_s", ratio(float64(len(writes)), (sum(writes)+sum(latenciesMS(recs, opSync)))/1e3))
	var stalls []float64
	var rebuilds float64
	for i := range recs {
		if recs[i].rebuilds > 0 {
			rebuilds += float64(recs[i].rebuilds)
			stalls = append(stalls, ms(recs[i].end.Sub(recs[i].start)))
		}
	}
	out.set("core.rebuilds", rebuilds)
	out.set("core.rebuild_s_total", sum(stalls)/1e3)
	out.set("core.rebuild_ms_p50", median(stalls))
	out.set("core.rebuild_stall_ms_max", maxOf(stalls))
}

// serverLayers reports what the HTTP path adds around the store call.
func serverLayers(out *metrics, recs []opRec) {
	var self []float64
	var shed, bytes, n float64
	for i := range recs {
		r := &recs[i]
		n++
		if r.shed {
			shed++
		}
		if r.err != nil || r.sStart.IsZero() {
			continue
		}
		bytes += float64(r.respBytes)
		self = append(self, ms(r.end.Sub(r.start)-r.sEnd.Sub(r.sStart))*1e3)
	}
	out.set("server.self_us_p50", median(self))
	out.set("server.self_us_p99", percentile(self, 0.99))
	out.set("server.shed_share", ratio(shed, n))
	out.set("server.response_bytes_per_query", ratio(bytes, float64(len(self))))
}

// usage is a process-wide resource reading, taken around an untraced pass.
type usage struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
	lockWaits           float64
}

var lockWaitRE = regexp.MustCompile(`(?m)^iva_pool_shard_lock_wait_total(?:\{[^}]*\})? ([0-9.e+]+)$`)

func readUsage(st *iva.Store) usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := usage{mallocs: m.Mallocs, allocBytes: m.TotalAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, m := range lockWaitRE.FindAllStringSubmatch(st.MetricsText(), -1) {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			u.lockWaits += v
		}
	}
	return u
}

func (u usage) sub(v usage) usage {
	return usage{u.mallocs - v.mallocs, u.allocBytes - v.allocBytes, u.cpu - v.cpu, u.lockWaits - v.lockWaits}
}

// usageLayers reports per-operation allocation, CPU and pool lock waits from
// the resources used while n operations ran. The readings are process-wide:
// on serve-closed the HTTP client and server are in them.
func usageLayers(out *metrics, used usage, n int) {
	q := float64(n)
	out.set("store.allocs_per_query", ratio(float64(used.mallocs), q))
	out.set("store.alloc_kb_per_query", ratio(float64(used.allocBytes)/1024, q))
	out.set("store.cpu_ms_per_query", ratio(ms(used.cpu), q))
	out.set("storage.lock_waits_per_query", ratio(used.lockWaits, q))
}

// heapMiB is the Go heap in use after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
