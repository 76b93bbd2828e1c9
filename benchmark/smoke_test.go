package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at the smoke scale, plain and traced, and
// holds the output to the contract: every declared metric printed exactly
// once with its unit, a last line with exactly the four keys, no failed
// operation, BENCHMARK.json listing exactly the names the program emits,
// and the few facts the layer metrics must show at any scale.
func TestSmoke(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range m.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(specs))
	}
	tmp := t.TempDir()
	for i, sp := range specs {
		if m.Workloads[i].Name != sp.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, m.Workloads[i].Name, sp.name)
		}
		for _, traced := range []bool{false, true} {
			name := sp.name + map[bool]string{false: "/plain", true: "/traced"}[traced]
			res, err := runOne(sp, scales["smoke"], 42, 0, traced, 2, tmp, tmp+"/spans.jsonl")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, sp.name, 42, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line: %v", name, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
				t.Errorf("%s: last line %s", name, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(declared[traced]) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", name, len(last.Metrics), len(declared[traced]))
			}
			for metric, unit := range declared[traced] {
				got, ok := last.Metrics[metric]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s: metric %s: emitted %+v, declared unit %q", name, metric, got, unit)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == metric && f[2] == unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s: metric %s printed %d times with its unit", name, metric, printed)
				}
			}
			if !traced {
				for metric, v := range last.Metrics {
					if *v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, metric)
					}
				}
				continue
			}
			if _, err := os.Stat(tmp + "/spans.jsonl"); err != nil {
				t.Errorf("%s: span file: %v", name, err)
			}
			// What the layers must show: the delete storm's cleaning rebuilds
			// on churn; in process, layer times that add up to the operation
			// and no physical read on the pool-resident store.
			v := res.metrics.values
			switch {
			case sp.churn && v["core.rebuilds"] < 20:
				t.Errorf("%s: core.rebuilds = %v, want at least 20", name, v["core.rebuilds"])
			case !sp.serve && v["trace.coverage"] < 0.95:
				t.Errorf("%s: trace.coverage = %v, want at least 0.95", name, v["trace.coverage"])
			case sp.name == "search-warm" && v["storage.phys_reads_per_query"] != 0:
				t.Errorf("%s: storage.phys_reads_per_query = %v, want 0", name, v["storage.phys_reads_per_query"])
			case sp.name == "search-cold" && v["storage.phys_reads_per_query"] == 0:
				t.Errorf("%s: storage.phys_reads_per_query = 0 on a pool of %.1f%% of the data", name, 100*coldCacheShare)
			}
		}
	}
}
