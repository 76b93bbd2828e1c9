package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the program reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest loads BENCHMARK.json from path, or from the working directory
// or its parent when path is empty (the program runs from either).
func readManifest(path string) (*manifest, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		blob, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// runAA runs each workload twice on the same build and compares the two
// runs' end-to-end metrics with the bounds BENCHMARK.json declares. It
// returns the exit code: non-zero when a difference exceeds its bound, an
// operation failed, or the two runs' inputs differ. A difference over its
// bound calls for a longer run, not a wider bound.
func runAA(w io.Writer, only string, sc scale, seed int64, seconds float64, procs int, tmp, manifestPath string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -aa needs BENCHMARK.json: %v\n", err)
		return 2
	}
	code := 0
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		var runs [2]*result
		for i := range runs {
			if runs[i], err = runOne(sp, sc, seed, seconds, false, procs, tmp, ""); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 2
			}
		}
		a, b := runs[0], runs[1]
		fmt.Fprintf(w, "workload %s seed %d workload_hash %s / %s, failed %d / %d\n", sp.name, seed, a.hash, b.hash, a.failed, b.failed)
		if a.hash != b.hash || a.failed+b.failed > 0 {
			code = 1
		}
		for _, d := range m.EndToEnd {
			x, y := a.metrics.values[d.Name], b.metrics.values[d.Name]
			diff := ratio(math.Abs(x-y), (x+y)/2)
			verdict := "ok"
			if diff > d.Bound {
				verdict, code = "OVER", 1
			}
			fmt.Fprintf(w, "  %-28s %12.4f %12.4f %-6s diff %6.2f%%  bound %5.1f%%  %s\n", d.Name, x, y, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}
