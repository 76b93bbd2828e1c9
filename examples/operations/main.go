// Operations: the care-and-feeding surface of the store — bulk ingestion,
// per-term query diagnostics (Explain), index introspection (Attrs), the
// integrity checker (Check), and the observability layer (Prometheus-style
// metrics scrape plus the slow-query log with its per-term trace).
//
// Run with: go run ./examples/operations
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"github.com/sparsewide/iva"
)

func main() {
	// SlowQueryThreshold arms the slow-query log; a nanosecond threshold
	// captures every query so the demo always has a trace to show.
	st, err := iva.Create("", iva.Options{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(99))
	makes := []string{"canon", "nikon", "sony", "olympus", "pentax", "leica"}
	rows := make([]iva.Row, 0, 8000)
	for i := 0; i < 8000; i++ {
		rows = append(rows, iva.Row{
			"brand": iva.Strings(makes[rng.Intn(len(makes))]),
			"model": iva.Strings(fmt.Sprintf("mk%d", rng.Intn(400))),
			"price": iva.Num(float64(150 + rng.Intn(3000))),
		})
	}
	if _, err := st.InsertBatch(rows); err != nil { // bulk-feed ingestion
		log.Fatal(err)
	}
	q := iva.NewQuery(5).
		WhereText("brand", "cannon").
		WhereNum("price", 800)
	res, stats, err := st.Search(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search with %d workers: %d results, %d of %d tuples fetched\n",
		stats.Workers, len(res), stats.TableAccesses, stats.Scanned)
	for i, r := range res {
		row, _ := st.Get(r.TID)
		fmt.Printf("  %d. tid=%-9d dist=%-8.3f brand=%v price=%v\n",
			i+1, r.TID, r.Dist, row["brand"], row["price"])
	}

	// Explain: where do the bounds come from, and how tight are they?
	ex, err := st.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexplain: fetched %d of %d, pool bar %.3f\n",
		ex.Fetched, ex.Scanned, ex.PoolMaxFinal)
	for _, te := range ex.Terms {
		fmt.Printf("  %-7s type %-3s alpha %.0f%%  defined %-5d est mean %.2f [%.2f..%.2f] tightness %.2f\n",
			te.Attr, te.ListType, te.Alpha*100, te.Defined, te.MeanEst, te.MinEst, te.MaxEst, te.Tightness)
	}

	// Attrs: what did §III-D's selection choose?
	fmt.Println("\nindex layout:")
	for _, a := range st.Attrs() {
		if a.DF == 0 {
			continue
		}
		fmt.Printf("  %-7s %-8s type %-3s %6.1f KiB for df %d\n",
			a.Name, a.Kind, a.ListType, float64(a.Bits)/8/1024, a.DF)
	}

	// Check: the fsck that validates every vector against the table.
	rep, err := st.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nintegrity: %d entries, %d vectors verified, ok=%v\n",
		rep.Entries, rep.VectorElems, rep.Ok())

	// Metrics scrape: the same text a Prometheus server would pull from
	// `ivatool serve` /metrics; here we pick out the query count and the
	// page requests split between the buffer pool and the device.
	fmt.Println("\nmetrics scrape (selected series):")
	for _, line := range strings.Split(st.MetricsText(), "\n") {
		if strings.HasPrefix(line, "iva_query_duration_seconds_count") ||
			strings.HasPrefix(line, "iva_io_cache_hits_total") ||
			strings.HasPrefix(line, "iva_io_reads_total") {
			fmt.Printf("  %s\n", line)
		}
	}

	// The slow-query log keeps the full trace of each offending query: the
	// "query" root span, and under it the filter phase with its per-term
	// scan counters.
	fmt.Printf("\nslow-query log: %d entries; latest trace:\n", st.SlowQueryCount())
	var sb strings.Builder
	if err := st.WriteSlowQueries(&sb); err != nil {
		log.Fatal(err)
	}
	excerpt := sb.String()
	if len(excerpt) > 400 {
		excerpt = excerpt[:400] + "..."
	}
	fmt.Println(excerpt)
}
