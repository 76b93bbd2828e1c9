// Command ivatool creates, populates, inspects and queries iVA-file stores
// on disk through the public API.
//
// Usage:
//
//	ivatool -dir DIR create
//	ivatool -dir DIR insert '<attr>=<value>' [...]      # value: number or text
//	ivatool -dir DIR query [-profile] '<attr>=<value>' [...]
//	ivatool -dir DIR get <tid>
//	ivatool -dir DIR delete <tid>
//	ivatool -dir DIR stats [-strict]                     # -strict exits non-zero on recorded scrub damage
//	ivatool -dir DIR rebuild
//	ivatool -dir DIR check -checksums -deep -seed 7      # integrity check (+ checksum sweep, differential oracle)
//	ivatool -dir DIR scrub -repair                       # verify every checksum; -repair rebuilds from a clean table
//	ivatool -dir DIR demo                                # load a small product catalog
//	ivatool -dir DIR -addr :9090 serve                   # query API (/v1/search, /v1/get, /v1/stats) plus
//	                                                     # /metrics, /healthz, /debug/querylog, /debug/trace
//	                                                     # (-pprof adds /debug/pprof; -scrub-interval paces the
//	                                                     #  background scrubber behind /healthz; -qps/-burst/
//	                                                     #  -max-concurrent/-max-queue set per-tenant admission
//	                                                     #  limits; SIGTERM drains gracefully within -drain-timeout)
//
// Attribute values that parse as numbers are numeric; everything else is
// text. Multiple strings for one text attribute repeat the attribute:
// 'Industry=Computer' 'Industry=Software'.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/oracle"
)

// exitCodeError carries a specific process exit status through run; main
// unwraps it with errors.As. Without one, any error exits 1.
type exitCodeError struct {
	code int
	err  error
}

func (e *exitCodeError) Error() string { return e.err.Error() }
func (e *exitCodeError) Unwrap() error { return e.err }

func main() {
	var (
		dir        = flag.String("dir", "", "store directory (required)")
		k          = flag.Int("k", 10, "top-k for queries")
		metricF    = flag.String("metric", "L2", "distance metric: L1, L2, Linf")
		weights    = flag.String("weights", "EQU", "attribute weights: EQU, ITF")
		addr       = flag.String("addr", "127.0.0.1:9090", "listen address for serve")
		slow       = flag.Duration("slow", 250*time.Millisecond, "slow-query log threshold for serve")
		pprofFlag  = flag.Bool("pprof", false, "expose /debug/pprof on serve (off by default; see README security note)")
		scrubEvery = flag.Duration("scrub-interval", 10*time.Minute, "pause between background scrub sweeps for serve; the scrubber backs /healthz")
		qps        = flag.Float64("qps", 0, "per-tenant sustained query quota for serve (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-tenant quota burst for serve (0 = auto from -qps)")
		maxConc    = flag.Int("max-concurrent", 0, "per-tenant concurrent search cap for serve (0 = 2x GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", 0, "per-tenant admission queue bound for serve (0 = 4x cap)")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "default per-request deadline for serve")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM for serve")
		follow     = flag.String("follow", "", "serve as a read-only follower replicating from this primary URL")
		poll       = flag.Duration("poll", time.Second, "follower delta poll interval when caught up (with -follow)")
	)
	flag.Parse()
	args := flag.Args()
	if *dir == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ivatool -dir DIR <create|insert|query|get|delete|stats|rebuild|check|scrub|demo|serve> ...")
		os.Exit(2)
	}
	opts := iva.Options{Metric: *metricF, Weights: *weights, SlowQueryThreshold: *slow}
	sv := serveOpts{
		addr: *addr, pprof: *pprofFlag, scrubEvery: *scrubEvery,
		qps: *qps, burst: *burst, maxConcurrent: *maxConc, maxQueue: *maxQueue,
		reqTimeout: *reqTimeout, drainTimeout: *drainT,
		follow: *follow, poll: *poll,
	}
	if err := validateFlags(*k, *slow, sv); err != nil {
		fmt.Fprintf(os.Stderr, "ivatool: %v\n", err)
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	if err := run(cmd, rest, *dir, *k, sv, opts); err != nil {
		fmt.Fprintf(os.Stderr, "ivatool: %v\n", err)
		code := 1
		var ec *exitCodeError
		if errors.As(err, &ec) {
			code = ec.code
		}
		os.Exit(code)
	}
}

// serveOpts carries the serve-only flags through run.
type serveOpts struct {
	addr          string
	pprof         bool
	scrubEvery    time.Duration
	qps           float64
	burst         int
	maxConcurrent int
	maxQueue      int
	reqTimeout    time.Duration
	drainTimeout  time.Duration
	follow        string
	poll          time.Duration
}

// validateFlags rejects flag values that would previously pass silently into
// the store or server: a k <= 0 query only errors deep inside the engine, a
// negative -slow captures every query in the slow log, a negative admission
// limit has no sane meaning, and serve always runs the scrubber its /healthz
// reports, so -scrub-interval must be positive.
func validateFlags(k int, slow time.Duration, sv serveOpts) error {
	switch {
	case k <= 0:
		return fmt.Errorf("-k must be positive, got %d", k)
	case slow < 0:
		return fmt.Errorf("-slow must be non-negative, got %v", slow)
	case sv.scrubEvery <= 0:
		return fmt.Errorf("-scrub-interval must be positive, got %v", sv.scrubEvery)
	case sv.qps < 0:
		return fmt.Errorf("-qps must be non-negative, got %v", sv.qps)
	case sv.burst < 0:
		return fmt.Errorf("-burst must be non-negative, got %d", sv.burst)
	case sv.maxConcurrent < 0:
		return fmt.Errorf("-max-concurrent must be non-negative, got %d", sv.maxConcurrent)
	case sv.maxQueue < 0:
		return fmt.Errorf("-max-queue must be non-negative, got %d", sv.maxQueue)
	case sv.reqTimeout < 0:
		return fmt.Errorf("-request-timeout must be non-negative, got %v", sv.reqTimeout)
	case sv.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %v", sv.drainTimeout)
	case sv.poll < 0:
		return fmt.Errorf("-poll must be non-negative, got %v", sv.poll)
	}
	return nil
}

func run(cmd string, args []string, dir string, k int, sv serveOpts, opts iva.Options) error {
	switch cmd {
	case "create":
		st, err := iva.Create(dir, opts)
		if err != nil {
			return err
		}
		defer st.Close()
		fmt.Printf("created store in %s\n", dir)
		return nil
	case "demo":
		st, err := iva.Create(dir, opts)
		if err != nil {
			return err
		}
		defer st.Close()
		return demo(st)
	}

	// The serve-only flags are also accepted after the subcommand, where
	// operators expect them (`ivatool -dir DIR serve -follow URL`). The
	// global flag parse stops at "serve", so without this re-parse a trailing
	// -follow would be silently ignored and the replica would come up as an
	// independent primary.
	if cmd == "serve" {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.StringVar(&sv.addr, "addr", sv.addr, "listen address")
		fs.StringVar(&sv.follow, "follow", sv.follow, "replicate as a read-only follower from this primary URL")
		fs.DurationVar(&sv.poll, "poll", sv.poll, "follower delta poll interval when caught up")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
		}
		if sv.poll < 0 {
			return fmt.Errorf("-poll must be non-negative, got %v", sv.poll)
		}
	}

	// A follower replica bootstraps or crash-recovers from its primary before
	// opening, so it cannot go through the generic Open below.
	if cmd == "serve" && sv.follow != "" {
		st, err := iva.OpenFollower(dir, sv.follow, iva.FollowerOptions{Poll: sv.poll}, opts)
		if err != nil {
			return err
		}
		defer st.Close()
		return serve(st, sv)
	}

	st, err := iva.Open(dir, opts)
	if err != nil {
		return err
	}
	defer st.Close()

	switch cmd {
	case "insert":
		row, err := parseRow(args)
		if err != nil {
			return err
		}
		tid, err := st.Insert(row)
		if err != nil {
			return err
		}
		fmt.Printf("inserted tuple %d\n", tid)
	case "query":
		return query(st, k, args)
	case "explain":
		q, err := parseQuery(k, args)
		if err != nil {
			return err
		}
		ex, err := st.Explain(q)
		if err != nil {
			return err
		}
		fmt.Printf("scanned %d, fetched %d (%.2f%%), pool bar %.3f\n",
			ex.Scanned, ex.Fetched, 100*float64(ex.Fetched)/float64(max(ex.Scanned, 1)), ex.PoolMaxFinal)
		for _, te := range ex.Terms {
			fmt.Printf("  %-20s %-8s type %-3s alpha %.0f%%  defined %-6d ndf %-6d est[%.2f..%.2f] mean %.2f tight %.2f\n",
				te.Attr, te.Kind, te.ListType, te.Alpha*100,
				te.Defined, te.NDF, te.MinEst, te.MaxEst, te.MeanEst, te.Tightness)
		}
	case "get":
		tid, err := parseTID(args)
		if err != nil {
			return err
		}
		row, err := st.Get(tid)
		if err != nil {
			return err
		}
		fmt.Println(formatRow(row))
	case "delete":
		tid, err := parseTID(args)
		if err != nil {
			return err
		}
		if err := st.Delete(tid); err != nil {
			return err
		}
		fmt.Printf("deleted tuple %d\n", tid)
	case "stats":
		return stats(st, dir, args)
	case "serve":
		return serve(st, sv)
	case "rebuild":
		if err := st.Rebuild(); err != nil {
			return err
		}
		fmt.Println("rebuilt table and index files")
	case "check":
		return check(st, args)
	case "scrub":
		return scrub(st, dir, args)
	case "attrs":
		for _, a := range st.Attrs() {
			if a.DF == 0 {
				continue
			}
			fmt.Printf("%-24s %-8s type %-3s alpha %.0f%%  df %-6d strs %-6d %d bits  codec %s\n",
				a.Name, a.Kind, a.ListType, a.Alpha*100, a.DF, a.Strings, a.Bits, a.Codec)
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// query runs one top-k search and prints each answer's row, then either the
// one-line summary or, with -profile, the executed plan's per-phase profile.
func query(st *iva.Store, k int, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	profile := fs.Bool("profile", false, "print the executed plan's per-phase profile (EXPLAIN ANALYZE)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := parseQuery(k, fs.Args())
	if err != nil {
		return err
	}
	start := time.Now()
	res, stats, err := st.Search(q)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for _, r := range res {
		row, err := st.Get(r.TID)
		if err != nil {
			return err
		}
		fmt.Printf("tid=%d dist=%.3f %s\n", r.TID, r.Dist, formatRow(row))
	}
	if *profile {
		fmt.Print(stats.Render(q, len(res), elapsed))
	} else {
		fmt.Printf("(scanned %d, table accesses %d, filter %v, refine %v)\n",
			stats.Scanned, stats.TableAccesses, stats.Phase.FilterTime, stats.Phase.RefineTime)
	}
	return nil
}

// stats prints the store's shape and, when a scrub report has been persisted
// (by `ivatool scrub` or a background scrubber), the last sweep's age and
// damage. With -strict, recorded damage, a sweep error, a damaged health
// verdict or a report without a completed sweep exits non-zero so cron jobs
// can alert on it.
func stats(st *iva.Store, dir string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	strict := fs.Bool("strict", false, "exit non-zero when the persisted scrub report records damage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := st.Stats()
	fmt.Printf("tuples      %d\n", s.Tuples)
	fmt.Printf("deleted     %d\n", s.Deleted)
	fmt.Printf("attributes  %d\n", s.Attributes)
	fmt.Printf("table bytes %d\n", s.TableBytes)
	fmt.Printf("index bytes %d\n", s.IndexBytes)
	fmt.Printf("rebuilds    %d (clean %d growth %d needs_rebuild %d explicit %d)\n", s.Rebuilds,
		s.RebuildsBy.Clean, s.RebuildsBy.Growth, s.RebuildsBy.NeedsRebuild, s.RebuildsBy.Explicit)
	fmt.Printf("cache hits  %d (%.1f%% hit rate)\n", s.IO.CacheHits, 100*s.IO.HitRate())
	fmt.Printf("phys reads  %d (seq %d near %d rand %d)\n",
		s.IO.PhysReads, s.IO.SeqReads, s.IO.NearReads, s.IO.RandReads)
	fmt.Printf("phys writes %d\n", s.IO.PhysWrites)
	packed, blocks := 0, 0
	attrs := st.Attrs()
	for _, a := range attrs {
		if a.Codec != "raw" {
			packed++
			blocks += a.Blocks
		}
	}
	if packed > 0 {
		fmt.Printf("codec       packed (%d/%d lists, %d sealed blocks)\n", packed, len(attrs), blocks)
	} else {
		fmt.Printf("codec       raw\n")
	}
	// Replication role and cursor, from the durable state files (a live
	// follower's lag shows at its /healthz and /v1/stats; offline, only the
	// applied generation is knowable).
	if rs, ok := iva.ReadReplState(dir); ok {
		fmt.Printf("replication role=%s epoch=%d gen=%d", rs.Role, rs.Epoch, rs.Gen)
		if live := st.ReplStatus(); live.Role == "follower" {
			fmt.Printf(" lag=%d", live.LagGenerations)
		}
		fmt.Println()
	}

	snap, err := iva.LoadScrubReport(filepath.Join(dir, "scrub-report.json"))
	if os.IsNotExist(err) {
		fmt.Printf("scrub       never (no scrub report)\n")
		if *strict {
			return fmt.Errorf("stats -strict: no scrub report recorded")
		}
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("scrub       %s ago, health=%s\n", time.Since(snap.Time).Round(time.Second), snap.Health)
	if snap.Err != "" {
		fmt.Printf("  sweep error: %s\n", snap.Err)
	} else if snap.Report == nil {
		fmt.Printf("  not yet swept\n")
	}
	if snap.Report == nil {
		if *strict {
			return fmt.Errorf("stats -strict: the scrub report records no completed sweep")
		}
		return nil
	}
	bad := snap.Report.CorruptIndexSegments + snap.Report.CorruptTable
	fmt.Printf("  swept %s ago, degraded segments %d, corrupt table records %d\n",
		time.Since(snap.LastSweep).Round(time.Second),
		snap.Report.CorruptIndexSegments, snap.Report.CorruptTable)
	if *strict && (snap.Health == "damaged" || bad > 0 || snap.Err != "") {
		return fmt.Errorf("stats -strict: scrub recorded damage (health=%s)", snap.Health)
	}
	return nil
}

// check runs the structural integrity check and, with -checksums, the
// store-wide checksum sweep, and with -deep, the differential oracle. It
// always emits one machine-readable summary line (`check: status=...
// problems=N`) so scripts can grep the outcome, and returns a non-nil error
// — hence exit status 1 — on any failure.
func check(st *iva.Store, args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	sums := fs.Bool("checksums", false, "also verify every committed checksum (see scrub)")
	deep := fs.Bool("deep", false, "also run the differential oracle in a scratch directory")
	seed := fs.Uint64("seed", 0x1fa5eed, "oracle workload seed (with -deep)")
	ops := fs.Int("ops", 2000, "oracle operation count (with -deep)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := st.Check()
	if err != nil {
		fmt.Printf("check: status=error entries=0 live=0 attributes=0 vectors=0 problems=0\n")
		return err
	}
	status := "ok"
	if !rep.Ok() {
		status = "fail"
	}
	fmt.Printf("check: status=%s entries=%d live=%d attributes=%d vectors=%d problems=%d\n",
		status, rep.Entries, rep.Live, rep.Attributes, rep.VectorElems, len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	if !rep.Ok() {
		return fmt.Errorf("%d problems found", len(rep.Problems))
	}
	if *sums {
		srep, err := st.Scrub()
		if err != nil {
			return err
		}
		printScrub(srep)
		if !srep.Clean() {
			return fmt.Errorf("%d checksum problems found", len(srep.Problems))
		}
	}
	if !*deep {
		return nil
	}
	scratch, err := os.MkdirTemp("", "ivatool-oracle-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	res, oerr := oracle.Run(oracle.Options{
		Seed: *seed,
		Ops:  *ops,
		Dir:  scratch,
		Logf: func(format string, a ...interface{}) {
			fmt.Printf(format+"\n", a...)
		},
	})
	dstatus := "ok"
	if oerr != nil {
		dstatus = "fail"
	}
	fmt.Printf("check: deep=%s seed=%d ops=%d searches=%d comparisons=%d reopens=%d rebuilds=%d\n",
		dstatus, *seed, res.Ops, res.Searches, res.Comparisons, res.Reopens, res.Rebuilds)
	return oerr
}

func parseTID(args []string) (iva.TID, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("expected one tuple id")
	}
	v, err := strconv.ParseUint(args[0], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad tuple id %q", args[0])
	}
	return iva.TID(v), nil
}

func splitPair(s string) (attr, val string, err error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("bad pair %q, want attr=value", s)
	}
	return s[:i], s[i+1:], nil
}

// parseQuery builds a top-k query from attr=value pairs: a value that parses
// as a number is a numeric term, anything else a text term.
func parseQuery(k int, args []string) (*iva.Query, error) {
	q := iva.NewQuery(k)
	for _, a := range args {
		attr, val, err := splitPair(a)
		if err != nil {
			return nil, err
		}
		if f, ferr := strconv.ParseFloat(val, 64); ferr == nil {
			q.WhereNum(attr, f)
		} else {
			q.WhereText(attr, val)
		}
	}
	return q, nil
}

// parseRow folds attr=value pairs; repeated text attributes accumulate
// strings into one multi-string value.
func parseRow(args []string) (iva.Row, error) {
	texts := map[string][]string{}
	nums := map[string]float64{}
	for _, a := range args {
		attr, val, err := splitPair(a)
		if err != nil {
			return nil, err
		}
		if f, ferr := strconv.ParseFloat(val, 64); ferr == nil {
			nums[attr] = f
		} else {
			texts[attr] = append(texts[attr], val)
		}
	}
	row := iva.Row{}
	for a, v := range nums {
		row[a] = iva.Num(v)
	}
	for a, ss := range texts {
		row[a] = iva.Strings(ss...)
	}
	if len(row) == 0 {
		return nil, fmt.Errorf("no attr=value pairs given")
	}
	return row, nil
}

func formatRow(row iva.Row) string {
	parts := make([]string, 0, len(row))
	for name, v := range row {
		parts = append(parts, fmt.Sprintf("%s=%s", name, v))
	}
	return strings.Join(parts, " ")
}

// demo loads the paper's Fig. 1 examples plus a few products.
func demo(st *iva.Store) error {
	rows := []iva.Row{
		{"Type": iva.Strings("Job Position"), "Industry": iva.Strings("Computer", "Software"),
			"Company": iva.Strings("Google"), "Salary": iva.Num(1000)},
		{"Type": iva.Strings("Digital Camera"), "Price": iva.Num(230),
			"Company": iva.Strings("Canon"), "Pixel": iva.Num(10000000)},
		{"Type": iva.Strings("Music Album"), "Year": iva.Num(1996),
			"Price": iva.Num(20), "Artist": iva.Strings("Michael Jackson")},
		{"Type": iva.Strings("Digital Camera"), "Price": iva.Num(240), "Company": iva.Strings("Sony")},
		{"Type": iva.Strings("Digital Camera"), "Price": iva.Num(230), "Company": iva.Strings("Cannon")},
	}
	for _, r := range rows {
		if _, err := st.Insert(r); err != nil {
			return err
		}
	}
	fmt.Printf("loaded %d demo tuples; try:\n  ivatool -dir DIR query 'Type=Digital Camera' 'Company=Canon' 'Price=200'\n", len(rows))
	return nil
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
