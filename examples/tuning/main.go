// Tuning: sweep the two parameters the paper studies for a string's element
// width — the relative vector length α (Figs. 14/15) and the gram length n
// (Fig. 16) — on your own workload through the public API, and watch the
// filter/refine trade-off move. Larger α means longer elements: slower to
// scan, sharper at filtering; the sweet spot balances the two.
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/sparsewide/iva"
)

// buildWorkload fills a store and returns queries sampled from its data.
func buildWorkload(opts iva.Options, rng *rand.Rand) (*iva.Store, []*iva.Query, error) {
	st, err := iva.Create("", opts)
	if err != nil {
		return nil, nil, err
	}
	adjectives := []string{"vintage", "compact", "deluxe", "portable", "refurbished", "wireless"}
	nouns := []string{"camera", "espresso machine", "bicycle", "keyboard", "amplifier", "telescope"}
	type item struct {
		name  string
		price float64
	}
	var items []item
	for i := 0; i < 3000; i++ {
		name := adjectives[rng.Intn(len(adjectives))] + " " + nouns[rng.Intn(len(nouns))]
		price := float64(10 + rng.Intn(2000))
		items = append(items, item{name, price})
		row := iva.Row{
			"name":  iva.Strings(name),
			"price": iva.Num(price),
		}
		if rng.Intn(3) == 0 {
			row["condition"] = iva.Strings([]string{"new", "used", "parts"}[rng.Intn(3)])
		}
		if _, err := st.Insert(row); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	var queries []*iva.Query
	for i := 0; i < 30; i++ {
		it := items[rng.Intn(len(items))]
		name := it.name
		if i%2 == 0 { // users mistype; exact matches then sit at ed 1-2
			b := []byte(name)
			p := rng.Intn(len(b))
			b[p] = byte('a' + rng.Intn(26))
			name = string(b)
		}
		queries = append(queries, iva.NewQuery(10).
			WhereText("name", name).
			WhereNum("price", it.price))
	}
	return st, queries, nil
}

func measure(st *iva.Store, queries []*iva.Query) (accesses float64, filter, refine time.Duration, err error) {
	for _, q := range queries {
		_, stats, serr := st.Search(q)
		if serr != nil {
			return 0, 0, 0, serr
		}
		accesses += float64(stats.TableAccesses)
		filter += stats.Phase.FilterTime
		refine += stats.Phase.RefineTime
	}
	n := time.Duration(len(queries))
	return accesses / float64(len(queries)), filter / n, refine / n, nil
}

func main() {
	fmt.Println("alpha sweep (n=2):")
	fmt.Println("alpha  accesses/query  filter    refine    index MB")
	for _, alpha := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		st, queries, err := buildWorkload(iva.Options{Alpha: alpha, N: 2}, rand.New(rand.NewSource(1)))
		if err != nil {
			log.Fatal(err)
		}
		acc, filter, refine, err := measure(st, queries)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3.0f%%   %-15.1f %-9v %-9v %.2f\n",
			alpha*100, acc, filter.Round(time.Microsecond), refine.Round(time.Microsecond),
			float64(st.Stats().IndexBytes)/1e6)
		st.Close()
	}

	fmt.Println("\nn sweep (alpha=20%):")
	fmt.Println("n  accesses/query  filter    refine")
	for _, n := range []int{2, 3, 4, 5} {
		st, queries, err := buildWorkload(iva.Options{Alpha: 0.20, N: n}, rand.New(rand.NewSource(1)))
		if err != nil {
			log.Fatal(err)
		}
		acc, filter, refine, err := measure(st, queries)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d  %-15.1f %-9v %v\n",
			n, acc, filter.Round(time.Microsecond), refine.Round(time.Microsecond))
		st.Close()
	}
	fmt.Println("\nthe paper's Table I default (alpha=20%, n=2) should sit near the minimum")
}
