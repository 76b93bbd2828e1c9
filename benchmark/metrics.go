package main

import "fmt"

// metricDef names one metric the program emits. BENCHMARK.json at the root
// of the repository declares the same names and units (with direction and
// regression bound); a test holds the two lists equal.
type metricDef struct{ name, unit string }

// tailPercentile is the tail the end-to-end latency metric reports.
const tailPercentile = 0.95

// endToEnd are the metrics a user of the store would see; a plain run
// (-trace 0) prints exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"search_ms_p50", "ms"},
	{"search_ms_p95", "ms"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, prefix = layer; a traced run
// (-trace 1) prints exactly these. A metric that does not apply to a
// workload (server.* off serve-closed, write metrics off churn) reads 0.
var perLayer = []metricDef{
	{"bitio.readbits_ns", "ns"},
	{"bitio.readwords_ns_per_word", "ns"},
	{"vector.moveto_ns.type1", "ns"},
	{"vector.moveto_ns.type2", "ns"},
	{"vector.moveto_ns.type3", "ns"},
	{"vector.moveto_ns.type4", "ns"},
	{"vector.moveto_ns.packed", "ns"},
	{"vector.encode_ns", "ns"},
	{"signature.est_ns", "ns"},
	{"signature.encode_ns", "ns"},
	{"vaq.mindist_ns", "ns"},
	{"gram.editdistance_ns", "ns"},
	{"metric.distance_ns", "ns"},
	{"topk.insert_ns", "ns"},
	{"storage.pool_hit_ns", "ns"},
	{"storage.pool_miss_ns", "ns"},
	{"storage.hit_rate", "ratio"},
	{"storage.pages_per_query", "count"},
	{"storage.phys_reads_per_query", "count"},
	{"storage.phys_writes_per_write", "count"},
	{"storage.bytes_written_per_user_byte", "ratio"},
	{"storage.syncs", "count"},
	{"storage.lock_waits_per_query", "count"},
	{"table.fetch_us", "us"},
	{"table.accesses_per_query", "count"},
	{"table.bytes_per_tuple", "B"},
	{"core.filter_ms_per_query", "ms"},
	{"core.refine_ms_per_query", "ms"},
	{"core.merge_ms_per_query", "ms"},
	{"core.filter_ns_per_tuple_term", "ns"},
	{"core.refine_us_per_fetch", "us"},
	{"core.scanned_per_query", "count"},
	{"core.fetches_per_result", "ratio"},
	{"core.zone_pruned_share", "ratio"},
	{"core.worker_busy_share", "ratio"},
	{"core.filter_model_ratio", "ratio"},
	{"core.search_base_ms_p50", "ms"},
	{"core.search_par1_ms_p50", "ms"},
	{"core.search_codec1_ms_p50", "ms"},
	{"core.index_bytes_per_tuple", "B"},
	{"core.index_bytes_per_tuple_codec1", "B"},
	{"core.build_s", "s"},
	{"core.rebuilds", "count"},
	{"core.rebuild_s_total", "s"},
	{"core.rebuild_ms_p50", "ms"},
	{"core.rebuild_stall_ms_max", "ms"},
	{"store.search_self_us", "us"},
	{"store.search_ms_max", "ms"},
	{"store.allocs_per_query", "count"},
	{"store.alloc_kb_per_query", "KiB"},
	{"store.cpu_ms_per_query", "ms"},
	{"store.insert_ms_p50", "ms"},
	{"store.delete_ms_p50", "ms"},
	{"store.update_ms_p50", "ms"},
	{"store.sync_ms_p50", "ms"},
	{"store.write_ms_p50", "ms"},
	{"store.writes_per_s", "1/s"},
	{"store.load_rows_per_s", "1/s"},
	{"server.self_us_p50", "us"},
	{"server.self_us_p99", "us"},
	{"server.shed_share", "ratio"},
	{"server.response_bytes_per_query", "B"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metrics collects one run's values against a declared list: setting an
// undeclared name or one name twice is a bug and panics; fill gives the
// metrics a workload does not exercise their 0.
type metrics struct {
	defs    []metricDef
	units   map[string]string
	values  map[string]float64
	samples map[string]int // sample count behind a value, where there is one
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: defs, units: make(map[string]string), values: make(map[string]float64), samples: make(map[string]int)}
	for _, d := range defs {
		m.units[d.name] = d.unit
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
	}
	if _, dup := m.values[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	m.values[name] = v
}

func (m *metrics) setN(name string, v float64, n int) {
	m.set(name, v)
	m.samples[name] = n
}

func (m *metrics) fill() {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			m.values[d.name] = 0
		}
	}
}
