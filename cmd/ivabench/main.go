// Command ivabench regenerates the paper's evaluation (Table I and Figures
// 8–17) plus the repository's ablation experiments over the synthetic
// Google-Base workload.
//
// Usage:
//
//	ivabench [-exp name|all] [-tuples N] [-seed S] [-parallelism P] [-markdown] [-list]
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
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Experiments(), "\n"))
		return
	}
	cfg := bench.Config{Tuples: *tuples, Seed: *seed, Parallelism: *par}
	if *par == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = bench.Experiments()
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
}
