// Communitybase: a Google-Base-style data publishing service on a
// persistent store. Users submit items with freely invented attributes; the
// service survives restarts (Open), absorbs churn (inserts, deletes,
// updates), and lets the §IV-B cleaning policy rebuild the files when
// deletions awaiting cleaning accumulate. ITF weighting makes rare attributes count more, as
// in the paper's S4–S6 settings.
//
// Run with: go run ./examples/communitybase
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/sparsewide/iva"
)

func main() {
	dir := filepath.Join(os.TempDir(), "iva-communitybase")
	os.RemoveAll(dir)

	// Phase 1: the service starts and users publish items.
	st, err := iva.Create(dir, iva.Options{
		Weights:        "ITF",
		CleanThreshold: 0.05, // rebuild when 5% of tuples are deleted, awaiting cleaning
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	categories := []string{"vehicles", "housing", "jobs", "recipes", "events"}
	cities := []string{"harbin", "singapore", "beijing", "shanghai", "hangzhou"}
	var bulk []iva.Row
	for i := 0; i < 2000; i++ {
		cat := categories[rng.Intn(len(categories))]
		row := iva.Row{
			"category": iva.Strings(cat),
			"city":     iva.Strings(cities[rng.Intn(len(cities))]),
		}
		// Users attach their own fields per category — the table grows
		// attributes organically, no migration ever runs.
		switch cat {
		case "vehicles":
			row["make"] = iva.Strings([]string{"toyota", "volkswagen", "geely", "bmw"}[rng.Intn(4)])
			row["mileage"] = iva.Num(float64(rng.Intn(200000)))
			row["price"] = iva.Num(float64(2000 + rng.Intn(40000)))
		case "housing":
			row["rooms"] = iva.Num(float64(1 + rng.Intn(5)))
			row["rent"] = iva.Num(float64(300 + rng.Intn(3000)))
		case "jobs":
			row["industry"] = iva.Strings([]string{"software", "hardware", "finance"}[rng.Intn(3)])
			row["salary"] = iva.Num(float64(500 + rng.Intn(5000)))
		case "recipes":
			row["cuisine"] = iva.Strings([]string{"sichuan", "cantonese", "italian"}[rng.Intn(3)])
			row["minutes"] = iva.Num(float64(10 + rng.Intn(120)))
		case "events":
			row["year"] = iva.Num(float64(2006 + rng.Intn(4)))
		}
		bulk = append(bulk, row)
	}
	// Bulk feeds land through the batched path: one pass per vector list.
	tids, err := st.InsertBatch(bulk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d items across %d attributes\n", len(tids), st.Stats().Attributes)

	// Phase 2: restart the service — everything is on disk.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st, err = iva.Open(dir, iva.Options{Weights: "ITF", CleanThreshold: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	fmt.Printf("reopened store: %d live tuples\n\n", st.Stats().Tuples)

	// Phase 3: community churn. Sellers remove and edit listings; the
	// cleaning policy rebuilds files behind the scenes.
	for i := 0; i < 300; i++ {
		victim := tids[rng.Intn(len(tids))]
		if rng.Intn(2) == 0 {
			err = st.Delete(victim)
		} else {
			_, err = st.Update(victim, iva.Row{
				"category": iva.Strings("vehicles"),
				"make":     iva.Strings("toyota"),
				"price":    iva.Num(float64(3000 + rng.Intn(20000))),
			})
		}
		if err != nil && err != iva.ErrNotFound {
			log.Fatal(err)
		}
	}
	s := st.Stats()
	fmt.Printf("after churn: %d live, %d deletions awaiting cleaning, %d automatic rebuilds\n\n",
		s.Tuples, s.Deleted, s.Rebuilds)

	// Phase 4: an ITF-weighted search. "make" is a rare attribute compared
	// to "city", so matching the make matters more than matching the city.
	// The price term gets an explicit small weight so a few thousand of
	// price difference does not drown out the text matches (raw numeric
	// scales are the metric designer's job; weights are the knob).
	q := iva.NewQuery(5).
		WhereText("category", "vehicles").
		WhereText("make", "toyotta"). // typo, as usual
		WhereText("city", "harbin").
		WhereNumWeighted("price", 12000, 0.001)
	res, stats, err := st.Search(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top vehicles for {make≈toyota, city=harbin, price≈12000} (ITF weights):")
	for i, r := range res {
		row, err := st.Get(r.TID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d. dist=%-8.3f make=%-12s city=%-10s price=%s\n",
			i+1, r.Dist, cell(row, "make"), cell(row, "city"), cell(row, "price"))
	}
	fmt.Printf("  (fetched %d of %d scanned tuples)\n",
		stats.TableAccesses, stats.Scanned)
}

// cell renders one attribute, showing the sparse table's ndf explicitly.
func cell(row iva.Row, attr string) string {
	v, ok := row[attr]
	if !ok {
		return "ndf"
	}
	return v.String()
}
