// Command ivabench regenerates the paper's evaluation (Table I and Figures
// 8–17) plus the repository's ablation experiments over the synthetic
// Google-Base workload.
//
// Usage:
//
//	ivabench [-exp name|all] [-tuples N] [-seed S] [-parallelism P] [-markdown] [-list] [-metrics FILE]
//	ivabench -serve [-serve.out BENCH_serve.json] [-serve.ms 1000]   # HTTP service load test
//
// Examples:
//
//	ivabench -exp fig8                 # one figure at the default scale
//	ivabench -exp all -tuples 779019   # full paper scale (slow)
//	ivabench -exp all -markdown        # the tables EXPERIMENTS.md embeds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/sparsewide/iva/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list) or 'all'")
		tuples   = flag.Int("tuples", 60000, "dataset scale in tuples (paper: 779019)")
		seed     = flag.Int64("seed", 42, "dataset seed")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		list     = flag.Bool("list", false, "list experiments and exit")
		par      = flag.Int("parallelism", 1, "iVA-file search workers: 1 = one worker (the paper's setup), 0 = all cores")
		metrics  = flag.String("metrics", "", "after the run, dump the harness registry in Prometheus text format to FILE ('-' for stdout)")
		zonemap  = flag.Bool("zonemap", false, "run the stripe zone-map selectivity sweep instead of the paper experiments")
		zoneOut  = flag.String("zonemap.out", "BENCH_zonemap.json", "output file for -zonemap")
		serveB   = flag.Bool("serve", false, "run the HTTP query-service traffic benchmark instead of the paper experiments")
		serveOut = flag.String("serve.out", "BENCH_serve.json", "output file for -serve")
		serveMS  = flag.Int("serve.ms", 1000, "measured milliseconds per -serve point")
	)
	flag.Parse()

	if *serveB {
		r, err := bench.RunServeBench(*tuples, *seed, time.Duration(*serveMS)*time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: serve bench: %v\n", err)
			os.Exit(1)
		}
		data, err := r.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: serve bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: writing %s: %v\n", *serveOut, err)
			os.Exit(1)
		}
		for _, p := range r.Points {
			switch p.Mode {
			case "closed":
				fmt.Printf("closed clients=%-3d %8.0f qps  p50 %6.2fms  p99 %6.2fms  (%d requests)\n",
					p.Clients, p.ThroughputQPS, p.P50MS, p.P99MS, p.Requests)
			default:
				fmt.Printf("open   offered=%.0f qps, quota=%.0f qps: shed %.1f%%  admitted p50 %.2fms p99 %.2fms  (%d requests)\n",
					p.OfferedQPS, p.QuotaQPS, 100*p.ShedRate, p.P50MS, p.P99MS, p.Requests)
			}
		}
		fmt.Printf("→ %s\n", *serveOut)
		return
	}

	if *zonemap {
		r, err := bench.RunZoneMapBench(*tuples, *par, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: zonemap bench: %v\n", err)
			os.Exit(1)
		}
		data, err := r.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: zonemap bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*zoneOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: writing %s: %v\n", *zoneOut, err)
			os.Exit(1)
		}
		for _, p := range r.Points {
			match := "match"
			if !p.ResultsMatch {
				match = "MISMATCH"
			}
			fmt.Printf("%-8s k=%-4d stripes=%d pruned=%d/%d (%.1f%%)  scanned %d→%d  filter reads %d→%d (%.1f%% saved)  wall %.1fms→%.1fms (%.2fx)  results %s\n",
				p.Layout, p.K, p.Stripes, p.ZonePruned, p.ZoneChecked, 100*p.PruneRatio,
				p.ScannedOff, p.ScannedOn, p.FilterReadsOff, p.FilterReadsOn, 100*p.ReadsSaved,
				p.WallOffMS, p.WallOnMS, p.Speedup, match)
		}
		fmt.Printf("→ %s\n", *zoneOut)
		return
	}

	if *list {
		for _, name := range bench.Experiments {
			fmt.Println(name)
		}
		return
	}
	cfg := bench.Config{Tuples: *tuples, Seed: *seed, Parallelism: *par}
	if *par == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = bench.Experiments
	}
	for _, name := range names {
		start := time.Now()
		r, err := bench.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Print(r.Markdown())
		} else {
			fmt.Print(r.Render())
			fmt.Printf("\n(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		}
	}

	if *metrics != "" {
		text := bench.MetricsText()
		if *metrics == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(*metrics, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ivabench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}
